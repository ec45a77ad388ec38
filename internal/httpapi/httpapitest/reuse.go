package httpapitest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/serve"
)

// ScanItems is AllocPin's data set: 20 000 unit boxes on a 200 × 100
// lattice in z 0..1, IDs 1..20 000.
func ScanItems() []index.Item {
	items := make([]index.Item, 20000)
	for i := range items {
		x, y := float64(i%200), float64(i/200)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
	}
	return items
}

// allocSlack is how many more allocations AllocPin lets the scan make than
// the small range: the two replies differ in size, so the response
// recorder's buffer may grow once more for one than for the other.
const allocSlack = 4

// AllocPin checks that the allocations of a warm range read through h, a
// handler over ScanItems, do not grow with the number of matches: a range
// that matches 16 000 items and replies with 16 of them (the shape of the
// benchmark's scan class) allocates at most allocSlack more than one that
// matches and replies with 40. It is skipped under the race detector.
func AllocPin(t *testing.T, h http.Handler) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled buffers at random")
	}
	const (
		scan  = "/v1/range?minx=0.5&miny=0.5&minz=0&maxx=159.5&maxy=99.5&maxz=1"
		small = "/v1/range?minx=0.5&miny=0.5&minz=0&maxx=3.5&maxy=9.5&maxz=1"
	)
	for _, c := range []struct {
		path  string
		count int
	}{{scan, 16000}, {scan + "&limit=16", 16}, {small, 40}} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		var rep struct{ Count int }
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rep) != nil || rep.Count != c.count {
			t.Fatalf("%s: %d, want 200 with count %d: %.200s", c.path, rec.Code, c.count, rec.Body.Bytes())
		}
	}
	allocs := func(path string) float64 {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		run := func() { h.ServeHTTP(httptest.NewRecorder(), req) }
		// Warm up until every buffer the read takes from a pool has grown
		// to the largest size any of its users needs.
		for i := 0; i < 20; i++ {
			run()
		}
		return testing.AllocsPerRun(50, run)
	}
	big, little := allocs(scan+"&limit=16"), allocs(small)
	t.Logf("allocations per read: %.1f for the scan, %.1f for the 40-item range", big, little)
	if big > little+allocSlack {
		t.Fatalf("a 16 000-match range replying 16 items allocates %.1f times, a 40-item range %.1f: allocations grow with the match count",
			big, little)
	}
}

// reuseRead is one read of the reuse check with what its truth needs.
type reuseRead struct {
	path  string
	knn   bool
	box   geom.AABB // range
	limit int       // range
	p     geom.Vec3 // kNN
	k     int       // kNN
}

// ftoa formats a coordinate so that it parses back to the same float64.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func rangeRead(box geom.AABB, limit int) reuseRead {
	path := "/v1/range?minx=" + ftoa(box.Min.X) + "&miny=" + ftoa(box.Min.Y) + "&minz=" + ftoa(box.Min.Z) +
		"&maxx=" + ftoa(box.Max.X) + "&maxy=" + ftoa(box.Max.Y) + "&maxz=" + ftoa(box.Max.Z)
	if limit > 0 {
		path += "&limit=" + strconv.Itoa(limit)
	}
	return reuseRead{path: path, box: box, limit: limit}
}

func knnRead(p geom.Vec3, k int) reuseRead {
	return reuseRead{path: "/v1/knn?x=" + ftoa(p.X) + "&y=" + ftoa(p.Y) + "&z=" + ftoa(p.Z) + "&k=" + strconv.Itoa(k), knn: true, p: p, k: k}
}

// reuseReads are ranges from a few items to all of them, one cut to three
// items, and kNN from k=1 to every item: answers of very different sizes
// that the back end appends into the same pooled buffers.
func reuseReads(items []index.Item) []reuseRead {
	world := items[0].Box
	for _, it := range items {
		world = world.Union(it.Box)
	}
	c, h := world.Center(), world.Size().Scale(0.25)
	return []reuseRead{
		rangeRead(world, 0),
		rangeRead(items[0].Box, 0),
		knnRead(c, 1),
		rangeRead(geom.NewAABB(c.Sub(h), c.Add(h)), 0),
		knnRead(items[len(items)/2].Box.Center(), len(items)),
		rangeRead(world, 3),
		knnRead(world.Min, 7),
	}
}

// check compares one reply with a linear scan of items. Every item must be
// one of items with its own box, once. A complete reply is the whole truth
// (a range cut to its limit: that many matches; kNN: the k nearest
// distances, closest first); a degraded one a part of it. A refusal must be
// an error envelope with a 5xx status.
func (rd reuseRead) check(items []index.Item, status int, body []byte) (degraded, refused bool, err error) {
	if status != http.StatusOK {
		var env httpapi.ErrorEnvelope
		if status < 500 || json.Unmarshal(body, &env) != nil || env.Error.Code == "" {
			return false, false, fmt.Errorf("%s: %d %.200s", rd.path, status, body)
		}
		return false, true, nil
	}
	var rep struct {
		Count    int        `json:"count"`
		Items    []ItemJSON `json:"items"`
		Degraded bool       `json:"degraded"`
	}
	if err := json.Unmarshal(body, &rep); err != nil || rep.Count != len(rep.Items) {
		return false, false, fmt.Errorf("%s: count %d for %d items (%v): %.200s", rd.path, rep.Count, len(rep.Items), err, body)
	}
	byID := make(map[int64]geom.AABB, len(items))
	for _, it := range items {
		byID[it.ID] = it.Box
	}
	seen := make(map[int64]bool, len(rep.Items))
	var got []float64
	for _, it := range rep.Items {
		box, ok := byID[it.ID]
		if !ok || seen[it.ID] || box != geom.NewAABB(geom.V(it.Min[0], it.Min[1], it.Min[2]), geom.V(it.Max[0], it.Max[1], it.Max[2])) {
			return false, false, fmt.Errorf("%s: item %d is not in the data, repeats or has another box: %+v", rd.path, it.ID, it)
		}
		seen[it.ID] = true
		if rd.knn {
			got = append(got, box.Distance2ToPoint(rd.p))
		} else if !box.Intersects(rd.box) {
			return false, false, fmt.Errorf("%s: item %d misses the range", rd.path, it.ID)
		}
	}
	n := 0 // the matches a complete reply holds
	var want []float64
	for _, it := range items {
		switch {
		case rd.knn:
			want = append(want, it.Box.Distance2ToPoint(rd.p))
		case it.Box.Intersects(rd.box):
			n++
		}
	}
	if rd.knn {
		slices.Sort(want)
		want = want[:min(rd.k, len(want))]
		n = len(want)
		if !slices.IsSorted(got) {
			return false, false, fmt.Errorf("%s: kNN items not closest first: %v", rd.path, got)
		}
	} else if rd.limit > 0 {
		n = min(rd.limit, n)
	}
	complete := len(rep.Items) == n && (!rd.knn || slices.Equal(got, want))
	if rep.Degraded && len(rep.Items) > n || !rep.Degraded && !complete {
		return false, false, fmt.Errorf("%s: %d items (degraded %v), the linear scan finds %d", rd.path, len(rep.Items), rep.Degraded, n)
	}
	return rep.Degraded, false, nil
}

// get sends one GET, reporting a transport failure as an error.
func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkReuse interleaves range and kNN reads of very different sizes from
// several clients at once — beside refused ones, both after the back end
// filled its buffer and before it began — then, alone, a reply degraded by
// one failed shard and a read whose deadline fires at a stalled shard. Every
// reply must match a linear scan of items (see reuseRead.check), and the
// reads after the faults too.
func checkReuse(t *testing.T, srv *httpapi.Server, base string, items []index.Item) {
	reads := reuseReads(items)
	f := *srv
	f.Backend = failing{srv.Backend, serve.ErrOverload}
	failBase := start(t, &f)
	var degradedN, refusedN int
	var mu sync.Mutex
	run := func(url string, rd reuseRead) {
		status, body, err := get(url)
		if err == nil {
			var degraded, refused bool
			degraded, refused, err = rd.check(items, status, body)
			mu.Lock()
			if degraded {
				degradedN++
			}
			if refused {
				refusedN++
			}
			mu.Unlock()
		}
		if err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8*len(reads); i++ {
				rd := reads[(i+c)%len(reads)]
				switch i % 5 {
				case 3:
					run(failBase+rd.path, rd)
				case 4:
					run(base+rd.path+"&timeout=1ns", rd)
				default:
					run(base+rd.path, rd)
				}
			}
		}()
	}
	wg.Wait()

	faultinject.SetSeed(1)
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{ErrRate: 1, Count: 1})
	run(base+reads[0].path, reads[0])
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{LatencyRate: 1, Latency: time.Minute, Count: 1})
	run(base+reads[0].path+"&timeout=300ms", reads[0])
	faultinject.Reset()
	for _, rd := range reads {
		run(base+rd.path, rd)
	}
	if degradedN == 0 || refusedN == 0 {
		t.Errorf("%d degraded and %d refused replies, want some of each", degradedN, refusedN)
	}
}
