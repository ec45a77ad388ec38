package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/serve"
)

func testServer(t *testing.T, n int) (*serve.Store, *httptest.Server) {
	t.Helper()
	store, err := serve.New(serve.Config{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	items := make([]index.Item, n)
	for i := range items {
		x := float64(i % 10)
		y := float64(i / 10)
		items[i] = index.Item{ID: int64(i), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
	}
	store.Bootstrap(items)
	ts := httptest.NewServer(newServer(store).Handler())
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return store, ts
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

func TestRangeEndpoint(t *testing.T) {
	_, ts := testServer(t, 100)
	var resp queryResponse
	getJSON(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2", &resp)
	if resp.Count != 100 || len(resp.Items) != 100 {
		t.Fatalf("whole-universe range returned %d items, want 100", resp.Count)
	}
	if resp.Epoch == 0 {
		t.Fatal("range response missing epoch")
	}

	// A query box covering only item 0's cell.
	var one queryResponse
	getJSON(t, ts.URL+"/v1/range?minx=0.2&miny=0.2&minz=0.2&maxx=0.8&maxy=0.8&maxz=0.8", &one)
	if one.Count != 1 || one.Items[0].ID != 0 {
		t.Fatalf("point-sized range got %+v, want exactly item 0", one.Items)
	}
}

func TestKNNEndpoint(t *testing.T) {
	_, ts := testServer(t, 100)
	var resp queryResponse
	getJSON(t, ts.URL+"/v1/knn?x=0.5&y=0.5&z=0.5&k=3", &resp)
	if resp.Count != 3 {
		t.Fatalf("knn returned %d items, want 3", resp.Count)
	}
	if resp.Items[0].ID != 0 {
		t.Fatalf("nearest to item 0's center is id %d, want 0", resp.Items[0].ID)
	}
}

func TestUpdateEndpointSwapsEpoch(t *testing.T) {
	_, ts := testServer(t, 50)

	var before queryResponse
	getJSON(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2", &before)

	body, _ := json.Marshal(updateRequest{
		Upserts: []itemJSON{{ID: 1000, Min: [3]float64{50, 50, 0}, Max: [3]float64{51, 51, 1}}},
		Deletes: []int64{0, 1},
	})
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != 3 || ur.Epoch <= before.Epoch {
		t.Fatalf("update response %+v (before epoch %d)", ur, before.Epoch)
	}

	var after queryResponse
	getJSON(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=60&maxy=60&maxz=2", &after)
	if after.Count != 49 { // 50 - 2 deletes + 1 upsert
		t.Fatalf("after update range returned %d items, want 49", after.Count)
	}
	if after.Epoch != ur.Epoch {
		t.Fatalf("query epoch %d, want the update's %d", after.Epoch, ur.Epoch)
	}
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	_, ts := testServer(t, 80)
	var stats map[string]interface{}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["items"].(float64) != 80 {
		t.Fatalf("stats items = %v, want 80", stats["items"])
	}
	if _, ok := stats["shards"]; !ok {
		t.Fatal("stats missing shards")
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, 10)
	for _, url := range []string{
		ts.URL + "/v1/range?minx=nope",
		ts.URL + "/v1/knn?x=1&y=2",
		ts.URL + "/v1/knn?x=1&y=2&z=3&k=-5",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestRunRejectsUnknownIndex: rtree is the one shard family served, so an
// unknown family and each retired one (grid, octree, crtree, and the
// planner's auto) is refused at start with an error naming rtree.
func TestRunRejectsUnknownIndex(t *testing.T) {
	var out strings.Builder
	for _, name := range []string{"btree", "grid", "octree", "crtree", "auto"} {
		err := run([]string{"-index", name, "-elements", "10", "-addr", "127.0.0.1:0"}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown shard family") || !strings.Contains(err.Error(), "rtree") {
			t.Fatalf("run with -index %s: err = %v", name, err)
		}
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Fatal("run with bad flag should fail")
	}
}

func TestJoinEndpoint(t *testing.T) {
	store, ts := testServer(t, 100)
	var resp joinResponse
	getJSON(t, ts.URL+"/v1/join?eps=0", &resp)
	if resp.Count == 0 || len(resp.Pairs) == 0 {
		t.Fatalf("join over touching unit cubes found no pairs: %+v", resp)
	}
	if resp.Epoch == 0 || resp.Algorithm == "" || resp.Items != 100 {
		t.Fatalf("join response metadata incomplete: %+v", resp)
	}
	// Pairs arrive in canonical order with A < B.
	for _, p := range resp.Pairs {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not ordered", p)
		}
	}

	// Forcing an algorithm is echoed back and yields the same pair count.
	var grid joinResponse
	getJSON(t, ts.URL+"/v1/join?eps=0&algo=grid&workers=2", &grid)
	if grid.Algorithm != "grid" || grid.Count != resp.Count {
		t.Fatalf("forced grid join: %+v, want algorithm=grid count=%d", grid, resp.Count)
	}

	// The limit truncates the body, not the count.
	var lim joinResponse
	getJSON(t, ts.URL+"/v1/join?eps=0&limit=3", &lim)
	if len(lim.Pairs) != 3 || !lim.Truncated || lim.Count != resp.Count {
		t.Fatalf("limited join: %+v, want 3 pairs, truncated, count=%d", lim, resp.Count)
	}

	// Join traffic shows up in the stats.
	if st := store.Stats(); st.Joins != 3 {
		t.Fatalf("stats joins=%d, want 3", st.Joins)
	}
}

func TestJoinEndpointBadRequests(t *testing.T) {
	_, ts := testServer(t, 10)
	for _, path := range []string{
		"/v1/join",                  // missing eps
		"/v1/join?eps=-1",           // negative eps
		"/v1/join?eps=abc",          // non-numeric eps
		"/v1/join?eps=0&algo=bogus", // unknown algorithm
		"/v1/join?eps=0&limit=0",    // limit out of range
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
