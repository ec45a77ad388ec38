package main

// Tests of the store's /v1 surface beyond the shared contract suite: the
// unified /v1/query dispatcher and opt-in plan reporting.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialsim/internal/serve"
)

// seedStore bootstraps the same grid dataset testServer uses.
func seedStore(t *testing.T, store *serve.Store, n int) {
	t.Helper()
	store.Bootstrap(gridItems(n))
}

// newTestHTTP serves an already-configured store and returns its base URL.
func newTestHTTP(t *testing.T, store *serve.Store) string {
	t.Helper()
	ts := httptest.NewServer(newServer(store).Handler())
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
	store, err := serve.New(serve.Config{Shards: 4, Workers: 2, CacheEntries: 64})
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
	if resp.Plan.FanOut <= 0 {
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
