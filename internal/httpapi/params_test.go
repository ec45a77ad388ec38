package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// TestParseMatchesURLParseQuery pins Parse to url.ParseQuery's pairs and
// url.Values.Get's first-value-wins reading.
func TestParseMatchesURLParseQuery(t *testing.T) {
	var many []string
	for i := 0; i < 20; i++ {
		many = append(many, "k"+strings.Repeat("x", i)+"="+strings.Repeat("v", i))
	}
	for _, raw := range []string{
		"",
		"minx=1&miny=2",
		"a=1&a=2&b=&c",
		"&&a=1&&",
		"x=%41%42&y=a+b&%7A=3",
		"bad=%zz&good=1",
		"%zz=1&good=2",
		"semi=1;2&ok=3",
		"eq=a=b",
		"k=1&k=",
		strings.Join(many, "&") + "&k=first&k=second",
	} {
		want, _ := url.ParseQuery(raw)
		p := Parse(raw)
		pairs := 0
		for k, vs := range want {
			pairs += len(vs)
			if got := p.Get(k); got != vs[0] {
				t.Errorf("%q: Get(%q) = %q, url.Values %q", raw, k, got, vs[0])
			}
		}
		if got := len(p); got != pairs {
			t.Errorf("%q: %d pairs, url.ParseQuery kept %d", raw, got, pairs)
		}
		if got := p.Get("absent"); got != "" {
			t.Errorf("%q: Get(absent) = %q", raw, got)
		}
	}
}

func TestReaders(t *testing.T) {
	p := Parse("minx=3&miny=2&minz=1&maxx=0&maxy=0&maxz=0&limit=5")
	box, limit, err := p.Range()
	if err != nil || limit != 5 || box != geom.NewAABB(geom.V(0, 0, 0), geom.V(3, 2, 1)) {
		t.Fatalf("Range = %v, %d, %v", box, limit, err)
	}

	p = Parse("x=1&y=2&z=3")
	pt, k, err := p.KNN()
	if err != nil || k != 10 || pt != geom.V(1, 2, 3) {
		t.Fatalf("KNN default k: %v, %d, %v", pt, k, err)
	}
	for _, bad := range []string{"k=0", "k=1025", "k=-3"} {
		p = Parse("x=1&y=2&z=3&" + bad)
		if _, _, err := p.KNN(); err == nil || !strings.Contains(err.Error(), "k out of range") {
			t.Errorf("%s: err %v, want k out of range", bad, err)
		}
	}

	p = Parse("eps=0.5&algo=grid&limit=7")
	jr, err := p.Join()
	if err != nil || jr != (serve.JoinRequest{Eps: 0.5, Limit: 7}) {
		t.Fatalf("Join = %+v, %v", jr, err)
	}
	for _, raw := range []string{"eps=0", "eps=0&algo=auto", "eps=0&algo=", "eps=0&algo=grid"} {
		p = Parse(raw)
		if jr, err = p.Join(); err != nil || jr != (serve.JoinRequest{Limit: 1000}) {
			t.Fatalf("Join %s = %+v, %v", raw, jr, err)
		}
	}
	for _, bad := range []string{"eps=-1", "eps=", "eps=-Inf", "eps=0&limit=0", "eps=0&limit=100001"} {
		p = Parse(bad)
		if _, err := p.Join(); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
	// The join is the grid alone: every other algorithm name, the ones
	// earlier builds ran included, is refused with one message rather than
	// silently answered by the grid.
	for _, algo := range []string{"touch", "sweep", "rtree-sync", "nested-loop", "pbsm", "GRID", "bogus"} {
		p = Parse("eps=0&algo=" + algo)
		want := `algo="` + algo + `": want auto|grid`
		if _, err := p.Join(); err == nil || err.Error() != want {
			t.Errorf("algo=%s: err %v, want %q", algo, err, want)
		}
	}
}

// TestJoinWorkersClampedAtTheDoor: a client budget above GOMAXPROCS is cut
// to it; smaller budgets and the 0 default pass through.
func TestJoinWorkersClampedAtTheDoor(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for raw, want := range map[string]int{
		"eps=1":                0,
		"eps=1&workers=1":      1,
		"eps=1&workers=100000": procs,
	} {
		p := Parse(raw)
		jr, err := p.Join()
		if err != nil || jr.Workers != want {
			t.Errorf("%s: workers %d (%v), want %d", raw, jr.Workers, err, want)
		}
	}
}

func TestContext(t *testing.T) {
	parent := context.Background()
	p := Parse("")
	ctx, cancel, err := p.Context(parent)
	if err != nil || ctx != parent {
		t.Fatalf("no timeout: %v, %v", ctx, err)
	}
	cancel()

	p = Parse("timeout=50ms")
	ctx, cancel, err = p.Context(parent)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > 50*time.Millisecond {
		t.Fatalf("timeout=50ms: deadline %v, %v", dl, ok)
	}

	for _, bad := range []string{"timeout=nope", "timeout=0s", "timeout=-5ms", "timeout=300m"} {
		p = Parse(bad)
		if _, _, err := p.Context(parent); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

// TestReadUpdateCapsTheBody pins the 413 on both sides of the cap: a body
// declared too long is refused unread, and one whose length was not
// declared is cut off once it passes the cap.
func TestReadUpdateCapsTheBody(t *testing.T) {
	const body = `{"upserts":[{"id":1,"min":[1,1,1],"max":[2,2,2]}],"deletes":[7]}`
	for _, tc := range []struct {
		name          string
		limit, length int64
		status        int
	}{
		{"fits", int64(len(body)), int64(len(body)), http.StatusOK},
		{"declared over", int64(len(body)) - 1, int64(len(body)), http.StatusRequestEntityTooLarge},
		{"streamed over", int64(len(body)) - 1, -1, http.StatusRequestEntityTooLarge},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(body))
		r.ContentLength = tc.length
		w := httptest.NewRecorder()
		batch, ok := readUpdate(w, r, tc.limit)
		if tc.status == http.StatusOK {
			if !ok || len(batch) != 2 || w.Body.Len() != 0 {
				t.Errorf("%s: ok=%v batch=%v reply %s", tc.name, ok, batch, w.Body.Bytes())
			}
			continue
		}
		if ok || w.Code != tc.status || !strings.Contains(w.Body.String(), `"too_large"`) {
			t.Errorf("%s: ok=%v %d %s", tc.name, ok, w.Code, w.Body.Bytes())
		}
	}
}
