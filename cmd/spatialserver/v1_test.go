package main

// Tests of the versioned API surface: /v1/ routes as canonical, legacy
// unversioned paths as byte-identical aliases, the uniform error envelope,
// per-request ids, the unified /v1/query dispatcher, and opt-in plan
// reporting.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/planner"
	"spatialsim/internal/serve"
)

// seedStore bootstraps the same grid dataset testServer uses.
func seedStore(t *testing.T, store *serve.Store, n int) {
	t.Helper()
	items := make([]index.Item, n)
	for i := range items {
		x := float64(i % 10)
		y := float64(i / 10)
		items[i] = index.Item{ID: int64(i), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
	}
	store.Bootstrap(items)
}

// newTestHTTP serves an already-configured store and returns its base URL.
func newTestHTTP(t *testing.T, store *serve.Store) string {
	t.Helper()
	ts := httptest.NewServer(newHandler(store))
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return ts.URL
}

func getResp(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp, body
}

func TestLegacyRoutesAreByteIdenticalAliases(t *testing.T) {
	_, ts := testServer(t, 100)
	paths := []string{
		"/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2",
		"/range?minx=0.2&miny=0.2&minz=0.2&maxx=0.8&maxy=0.8&maxz=0.8&limit=5",
		"/knn?x=5&y=5&z=0.5&k=7",
		"/join?eps=0.5&algo=grid&limit=10",
		"/recovery",
		"/healthz",
		// Error payloads must alias byte-for-byte too.
		"/range?minx=oops",
		"/knn?x=1&y=2",
		"/join?eps=-3",
	}
	for _, p := range paths {
		legacy, legacyBody := getResp(t, ts.URL+p)
		v1, v1Body := getResp(t, ts.URL+"/v1"+p)
		if legacy.StatusCode != v1.StatusCode {
			t.Errorf("%s: legacy status %d, v1 status %d", p, legacy.StatusCode, v1.StatusCode)
		}
		if string(legacyBody) != string(v1Body) {
			t.Errorf("%s: legacy and /v1 payloads differ:\n  legacy: %s\n  v1:     %s", p, legacyBody, v1Body)
		}
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := testServer(t, 10)
	cases := []struct {
		path     string
		status   int
		code     string
		fragment string
	}{
		{"/v1/range?minx=bad", http.StatusBadRequest, "bad_request", "minx..maxz"},
		{"/v1/knn?x=1&y=1&z=1&k=0", http.StatusBadRequest, "bad_request", "k out of range"},
		{"/v1/join?eps=abc", http.StatusBadRequest, "bad_request", "eps"},
		{"/v1/query?op=teleport", http.StatusBadRequest, "bad_request", "op must be"},
	}
	for _, tc := range cases {
		resp, body := getResp(t, ts.URL+tc.path)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: error body is not the envelope: %v (%s)", tc.path, err, body)
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.path, env.Error.Code, tc.code)
		}
		if !strings.Contains(env.Error.Message, tc.fragment) {
			t.Errorf("%s: message %q missing %q", tc.path, env.Error.Message, tc.fragment)
		}
	}

	// POST-only endpoints reject GET with the envelope as well.
	resp, body := getResp(t, ts.URL+"/v1/update")
	var env errorEnvelope
	if resp.StatusCode != http.StatusMethodNotAllowed || json.Unmarshal(body, &env) != nil ||
		env.Error.Code != "method_not_allowed" {
		t.Fatalf("GET /v1/update: %d %s", resp.StatusCode, body)
	}
}

func TestRequestIDs(t *testing.T) {
	_, ts := testServer(t, 10)

	resp, _ := getResp(t, ts.URL+"/v1/healthz")
	gen := resp.Header.Get("X-Request-Id")
	if gen == "" {
		t.Fatal("response missing generated X-Request-Id")
	}
	resp2, _ := getResp(t, ts.URL+"/v1/healthz")
	if resp2.Header.Get("X-Request-Id") == gen {
		t.Fatal("generated request ids must be unique per request")
	}

	// A client-provided id is echoed back, on v1 and legacy routes alike.
	for _, path := range []string{"/v1/stats", "/stats"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("X-Request-Id", "client-abc")
		echo, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		echo.Body.Close()
		if got := echo.Header.Get("X-Request-Id"); got != "client-abc" {
			t.Fatalf("%s: echoed id %q, want client-abc", path, got)
		}
	}
}

func TestUnifiedQueryEndpointMatchesDedicatedRoutes(t *testing.T) {
	_, ts := testServer(t, 100)
	pairs := [][2]string{
		{"/v1/query?op=range&minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2", "/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2"},
		{"/v1/query?op=knn&x=5&y=5&z=0.5&k=3", "/v1/knn?x=5&y=5&z=0.5&k=3"},
		{"/v1/query?op=join&eps=0.5&algo=grid&limit=5", "/v1/join?eps=0.5&algo=grid&limit=5"},
	}
	for _, pq := range pairs {
		_, unified := getResp(t, ts.URL+pq[0])
		_, dedicated := getResp(t, ts.URL+pq[1])
		if string(unified) != string(dedicated) {
			t.Errorf("%s and %s differ:\n  %s\n  %s", pq[0], pq[1], unified, dedicated)
		}
	}
}

func TestPlanReportingOptIn(t *testing.T) {
	store, err := serve.New(serve.Config{Shards: 4, Workers: 2, Planner: planner.Default(), CacheEntries: 64})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	seedStore(t, store, 200)
	ts := newTestHTTP(t, store)

	// Without plan=1 the payload carries no plan field at all.
	_, plain := getResp(t, ts+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=30&maxy=30&maxz=2")
	if strings.Contains(string(plain), "\"plan\"") {
		t.Fatalf("plan reported without opt-in: %s", plain)
	}

	// A box not queried before: the first request must miss, the repeat hit.
	var resp queryResponse
	getJSON(t, ts+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=31&maxy=31&maxz=2&plan=1", &resp)
	if resp.Plan == nil {
		t.Fatal("plan=1 response missing plan")
	}
	if resp.Plan.Family == "" || resp.Plan.FanOut <= 0 {
		t.Fatalf("plan incomplete: %+v", resp.Plan)
	}
	if resp.Plan.CacheHit {
		t.Fatalf("first query cannot be a cache hit: %+v", resp.Plan)
	}
	var again queryResponse
	getJSON(t, ts+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=31&maxy=31&maxz=2&plan=1", &again)
	if again.Plan == nil || !again.Plan.CacheHit {
		t.Fatalf("repeat query should hit the epoch cache: %+v", again.Plan)
	}
	if again.Count != resp.Count || again.Epoch != resp.Epoch {
		t.Fatalf("cache hit changed the answer: %+v vs %+v", again, resp)
	}

	var jr joinResponse
	getJSON(t, ts+"/v1/join?eps=0.5&plan=1", &jr)
	if jr.Plan == nil || jr.Plan.Algorithm == "" {
		t.Fatalf("join plan must report the chosen algorithm: %+v", jr.Plan)
	}
	if jr.Plan.Algorithm != jr.Algorithm {
		t.Fatalf("plan algorithm %q disagrees with response algorithm %q", jr.Plan.Algorithm, jr.Algorithm)
	}
	if jr.Plan.Comparisons < int64(jr.Count) {
		t.Fatalf("join plan reports %d comparisons for %d pairs", jr.Plan.Comparisons, jr.Count)
	}
}
