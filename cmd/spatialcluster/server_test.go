package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

// newTestFleet builds n in-memory nodes behind a coordinator bootstrapped
// with items, and an httptest server over the cluster handler.
func newTestFleet(t *testing.T, n, replication int, items []index.Item) (*cluster.Coordinator, []*cluster.Node, *httptest.Server) {
	t.Helper()
	nodes := make([]*cluster.Node, n)
	trs := make([]cluster.Transport, n)
	for i := 0; i < n; i++ {
		st, err := serve.Open(serve.Config{Shards: 4})
		if err != nil {
			t.Fatalf("serve.Open: %v", err)
		}
		t.Cleanup(st.Close)
		nodes[i] = cluster.NewNode(fmt.Sprintf("n%d", i), st)
		trs[i] = nodes[i]
	}
	co, err := cluster.New(cluster.Config{Transports: trs, Replication: replication})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(co.Close)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	ts := httptest.NewServer(newServer(co, nodes, nil).Handler())
	t.Cleanup(ts.Close)
	return co, nodes, ts
}

func fleetItems(n int) []index.Item {
	rng := rand.New(rand.NewSource(42))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.NewAABB(
			geom.V(c.X-0.4, c.Y-0.4, c.Z-0.4), geom.V(c.X+0.4, c.Y+0.4, c.Z+0.4))}
	}
	return items
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func decodeQuery(t *testing.T, body []byte) clusterQueryResponse {
	t.Helper()
	var qr clusterQueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode query response: %v\n%s", err, body)
	}
	return qr
}

const universeQuery = "minx=-1000&miny=-1000&minz=-1000&maxx=1000&maxy=1000&maxz=1000"

func TestClusterHTTPRangeKNNJoin(t *testing.T) {
	items := fleetItems(200)
	_, _, ts := newTestFleet(t, 3, 2, items)

	// Range over a sub-box must match the brute-force answer exactly.
	q := geom.NewAABB(geom.V(10, 10, 10), geom.V(60, 60, 60))
	want := map[int64]bool{}
	for _, it := range items {
		if it.Box.Intersects(q) {
			want[it.ID] = true
		}
	}
	resp, body := getBody(t, ts.URL+"/v1/range?minx=10&miny=10&minz=10&maxx=60&maxy=60&maxz=60")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Degraded {
		t.Fatalf("healthy fleet answered degraded: %s", body)
	}
	if qr.Count != len(want) || len(qr.Items) != len(want) {
		t.Fatalf("range count = %d, want %d", qr.Count, len(want))
	}
	seen := map[int64]bool{}
	for _, it := range qr.Items {
		if !want[it.ID] {
			t.Fatalf("range returned wrong item %d", it.ID)
		}
		if seen[it.ID] {
			t.Fatalf("range returned item %d twice", it.ID)
		}
		seen[it.ID] = true
	}
	if qr.Epoch != 1 || qr.FanOut < 1 {
		t.Fatalf("epoch %d fan_out %d, want epoch 1 and fan_out >= 1", qr.Epoch, qr.FanOut)
	}

	// kNN returns exactly k items, nearest first.
	resp, body = getBody(t, ts.URL+"/v1/knn?x=50&y=50&z=50&k=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn status %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Count != 7 {
		t.Fatalf("knn count = %d, want 7", qr.Count)
	}

	// Join: pair (a, b) tuples with a < b, at a radius that certainly pairs
	// something in a 200-item dataset.
	resp, body = getBody(t, ts.URL+"/v1/join?eps=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d: %s", resp.StatusCode, body)
	}
	var jr joinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("decode join: %v", err)
	}
	if jr.Count == 0 || jr.Algorithm != "grid" {
		t.Fatalf("join answered count=%d algorithm=%q", jr.Count, jr.Algorithm)
	}
	for _, p := range jr.Pairs {
		if p[0] >= p[1] {
			t.Fatalf("join pair not canonical: %v", p)
		}
	}

	// Naming the grid, or auto, is the same join.
	for _, algo := range []string{"grid", "auto"} {
		resp, body = getBody(t, ts.URL+"/v1/join?eps=5&algo="+algo)
		var named joinResponse
		if err := json.Unmarshal(body, &named); err != nil || resp.StatusCode != http.StatusOK ||
			named.Algorithm != "grid" || named.Count != jr.Count {
			t.Fatalf("algo=%s join: status %d %+v (%v), want grid count=%d", algo, resp.StatusCode, named, err, jr.Count)
		}
	}
}

func TestClusterHTTPUpdatePublishesNewEpoch(t *testing.T) {
	co, _, ts := newTestFleet(t, 3, 2, fleetItems(100))

	payload := `{"upserts":[{"id":5000,"min":[50,50,50],"max":[51,51,51]}],"deletes":[1]}`
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatalf("decode update: %v", err)
	}
	if ur.Epoch != 2 || ur.Applied != 2 {
		t.Fatalf("update response %+v, want epoch 2 applied 2", ur)
	}
	if co.Epoch() != 2 {
		t.Fatalf("coordinator epoch = %d, want 2", co.Epoch())
	}

	// The swap is visible cluster-wide: item 5000 present, item 1 gone.
	_, body = getBody(t, ts.URL+"/v1/range?"+universeQuery)
	qr := decodeQuery(t, body)
	found5000, found1 := false, false
	for _, it := range qr.Items {
		if it.ID == 5000 {
			found5000 = true
		}
		if it.ID == 1 {
			found1 = true
		}
	}
	if !found5000 || found1 {
		t.Fatalf("post-swap read: item5000=%v item1=%v, want true/false", found5000, found1)
	}
	if qr.Epoch != 2 {
		t.Fatalf("post-swap read epoch = %d, want 2", qr.Epoch)
	}
}

// TestClusterHTTPKillDrill drives the full failure drill over the admin API:
// with replication 1 a killed node degrades reads (correct subset + detail),
// a revive restores completeness; with a dead node staging aborts with 503.
func TestClusterHTTPKillDrill(t *testing.T) {
	items := fleetItems(150)
	_, _, ts := newTestFleet(t, 3, 1, items)

	_, full := getBody(t, ts.URL+"/v1/range?"+universeQuery)
	fullQR := decodeQuery(t, full)
	if fullQR.Count != len(items) {
		t.Fatalf("healthy full scan = %d items, want %d", fullQR.Count, len(items))
	}
	fullIDs := map[int64]bool{}
	for _, it := range fullQR.Items {
		fullIDs[it.ID] = true
	}

	// Unknown node name is a 404, not a silent no-op.
	resp, err := http.Post(ts.URL+"/v1/nodes/kill?name=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("kill unknown node: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/nodes/kill?name=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill n1: status %d", resp.StatusCode)
	}

	// Degraded-but-correct: 200, marked, strict subset, per-node detail.
	resp, body := getBody(t, ts.URL+"/v1/range?"+universeQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded range status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if !qr.Degraded || len(qr.NodeErrors) == 0 {
		t.Fatalf("killed-node reply not marked degraded with detail: %s", body)
	}
	if qr.Count == 0 || qr.Count >= fullQR.Count {
		t.Fatalf("degraded count = %d, want a proper subset of %d", qr.Count, fullQR.Count)
	}
	for _, it := range qr.Items {
		if !fullIDs[it.ID] {
			t.Fatalf("degraded reply invented item %d", it.ID)
		}
	}

	// A cluster write cannot publish while a stage target is down: 503 and
	// the epoch stays put.
	resp, body = postJSON(t, ts.URL+"/v1/update", `{"upserts":[{"id":9000,"min":[1,1,1],"max":[2,2,2]}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update with dead node: status %d, want 503; %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "swap_aborted") {
		t.Fatalf("update error missing swap_aborted code: %s", body)
	}

	// Revive: completeness restored, the aborted write retries clean.
	resp, err = http.Post(ts.URL+"/v1/nodes/revive?name=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body = getBody(t, ts.URL+"/v1/range?"+universeQuery)
	if qr := decodeQuery(t, body); qr.Degraded || qr.Count != len(items) {
		t.Fatalf("revived fleet still degraded or partial: count=%d degraded=%v", qr.Count, qr.Degraded)
	}
	resp, body = postJSON(t, ts.URL+"/v1/update", `{"upserts":[{"id":9000,"min":[1,1,1],"max":[2,2,2]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried update: status %d; %s", resp.StatusCode, body)
	}
}

// TestClusterHTTPReplicasAbsorbKill pins the replication payoff end to end:
// with replication 2 the same drill answers complete, not degraded.
func TestClusterHTTPReplicasAbsorbKill(t *testing.T) {
	items := fleetItems(150)
	_, nodes, ts := newTestFleet(t, 3, 2, items)
	nodes[1].Kill()
	resp, body := getBody(t, ts.URL+"/v1/range?"+universeQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Degraded || qr.Count != len(items) {
		t.Fatalf("replicated fleet did not absorb the kill: count=%d degraded=%v", qr.Count, qr.Degraded)
	}
}

func TestClusterHTTPBadRequests(t *testing.T) {
	_, _, ts := newTestFleet(t, 2, 1, fleetItems(50))
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/range?minx=nope", http.StatusBadRequest},
		{"/v1/range?" + universeQuery + "&timeout=0s", http.StatusBadRequest},
		{"/v1/range?" + universeQuery + "&timeout=300m", http.StatusBadRequest},
		{"/v1/knn?x=1&y=2&z=3&k=0", http.StatusBadRequest},
		{"/v1/join?eps=-1", http.StatusBadRequest},
		{"/v1/join?eps=0&algo=bogus", http.StatusBadRequest},
		{"/v1/join?eps=0&algo=touch", http.StatusBadRequest}, // the join is the grid alone
	} {
		resp, body := getBody(t, ts.URL+tc.url)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d; %s", tc.url, resp.StatusCode, tc.want, body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			t.Errorf("%s: not an error envelope: %s", tc.url, body)
		}
	}

	// A deadline the scatter cannot meet answers 504.
	resp, body := getBody(t, ts.URL+"/v1/range?"+universeQuery+"&timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns timeout: status %d, want 504; %s", resp.StatusCode, body)
	}
}

func TestClusterHTTPStatsAndPlacement(t *testing.T) {
	_, nodes, ts := newTestFleet(t, 3, 2, fleetItems(90))
	nodes[2].Kill()

	_, body := getBody(t, ts.URL+"/v1/stats")
	var st cluster.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode stats: %v\n%s", err, body)
	}
	if st.Epoch != 1 || len(st.Nodes) != 3 || st.Tiles != 3 || st.Replication != 2 {
		t.Fatalf("stats = %+v", st)
	}
	up := 0
	for _, ns := range st.Nodes {
		if ns.Up {
			up++
		}
	}
	if up != 2 {
		t.Fatalf("stats reports %d nodes up, want 2", up)
	}

	_, body = getBody(t, ts.URL+"/v1/placement")
	var pl struct {
		Epoch uint64         `json:"epoch"`
		Tiles []cluster.Tile `json:"tiles"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatalf("decode placement: %v", err)
	}
	if len(pl.Tiles) != 3 {
		t.Fatalf("placement has %d tiles, want 3", len(pl.Tiles))
	}
	for _, tile := range pl.Tiles {
		if len(tile.Owners) != 2 {
			t.Fatalf("tile owners = %v, want 2 per tile", tile.Owners)
		}
	}
}

// syncBuffer lets the test poll run()'s log output while the serving
// goroutine is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startRun runs run() with args on an ephemeral port until the returned
// stop delivers SIGTERM, and returns the base URL it serves and its output.
func startRun(t *testing.T, args ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	// Keep SIGTERM non-fatal for the whole test process even if the signal
	// lands before ServeUntilSignal registers its handler.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(guard) })

	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	// The listen address is printed once serving starts.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "spatialcluster: serving on ") {
				base = "http://" + strings.TrimPrefix(line, "spatialcluster: serving on ")
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never started:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// stop re-sends SIGTERM until run returns, covering the window before
	// the handler is registered.
	stop := func() error {
		killDeadline := time.Now().Add(20 * time.Second)
		for {
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				return err
			}
			select {
			case err := <-done:
				return err
			case <-time.After(200 * time.Millisecond):
				if time.Now().After(killDeadline) {
					return fmt.Errorf("run did not return after SIGTERM:\n%s", out.String())
				}
			}
		}
	}
	return base, out, stop
}

// TestRunServesAndBootstraps exercises the real entry point: run() on an
// ephemeral port with a small bootstrap, a live HTTP round-trip, then a
// graceful stop.
func TestRunServesAndBootstraps(t *testing.T) {
	base, out, stop := startRun(t, "-nodes", "3", "-replication", "2", "-elements", "500", "-data-dir", t.TempDir())
	if !strings.Contains(out.String(), "bootstrapped 500 elements across 3 nodes") {
		t.Fatalf("bootstrap log missing:\n%s", out.String())
	}

	resp, body := getBody(t, base+"/v1/range?"+universeQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Count != 500 || qr.Degraded {
		t.Fatalf("bootstrapped fleet: count=%d degraded=%v, want 500 complete", qr.Count, qr.Degraded)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
}

// TestServeUntilSignalClosesEveryNodeStore pins the cluster's graceful
// shutdown: SIGTERM drains, then closes the coordinator and every node
// store, so each node of a durable fleet takes its final snapshot and a
// restart replays no WAL.
func TestServeUntilSignalClosesEveryNodeStore(t *testing.T) {
	dir := t.TempDir()
	base, out, stop := startRun(t, "-nodes", "3", "-replication", "2", "-elements", "500", "-data-dir", dir)
	resp, body := postJSON(t, base+"/v1/update", `{"upserts":[{"id":9000,"min":[1,1,1],"max":[2,2,2]}],"deletes":[1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if !strings.Contains(out.String(), "graceful shutdown complete") {
		t.Fatalf("shutdown log missing:\n%s", out.String())
	}

	for i := 0; i < 3; i++ {
		ps, err := persist.Open(filepath.Join(dir, fmt.Sprintf("node-n%d", i)), persist.Options{})
		if err != nil {
			t.Fatalf("node %d: persist.Open: %v", i, err)
		}
		st, err := serve.Open(serve.Config{Shards: 4, Persist: ps})
		if err != nil {
			t.Fatalf("node %d: serve.Open: %v", i, err)
		}
		rec := st.Recovery()
		st.Close()
		ps.Close()
		if !rec.Recovered || rec.ReplayedBatches != 0 {
			t.Errorf("node %d: recovery %+v, want a snapshot with no WAL to replay", i, rec)
		}
	}
}

func postJSON(t *testing.T, url, payload string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// TestRecoveredItemsRebuildsClusterState pins the restart contract: the
// coordinator's view is process-local, so a fleet reopened over its persist
// directories must re-bootstrap from exactly the union of the nodes' durable
// items — deletes stay deleted, post-bootstrap upserts survive, replicas
// dedupe.
func TestRecoveredItemsRebuildsClusterState(t *testing.T) {
	dir := t.TempDir()
	items := fleetItems(300)

	openFleet := func() ([]*cluster.Node, *cluster.Coordinator) {
		nodes := make([]*cluster.Node, 3)
		trs := make([]cluster.Transport, 3)
		for i := range nodes {
			ps, err := persist.Open(filepath.Join(dir, fmt.Sprintf("node-n%d", i)), persist.Options{})
			if err != nil {
				t.Fatalf("persist.Open: %v", err)
			}
			st, err := serve.Open(serve.Config{Shards: 4, Persist: ps})
			if err != nil {
				t.Fatalf("serve.Open: %v", err)
			}
			t.Cleanup(func() { st.Close(); ps.Close() })
			nodes[i] = cluster.NewNode(fmt.Sprintf("n%d", i), st)
			trs[i] = nodes[i]
		}
		co, err := cluster.New(cluster.Config{Transports: trs, Replication: 2})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		t.Cleanup(co.Close)
		return nodes, co
	}

	nodes, co := openFleet()
	if rec, err := recoveredItems(nodes); err != nil || len(rec) != 0 {
		t.Fatalf("fresh fleet recovered %d items, err %v; want none", len(rec), err)
	}
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if _, err := co.Apply([]serve.Update{
		{ID: 777777, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))},
		{ID: 1, Delete: true},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	co.Close()
	for _, n := range nodes {
		n.Store().Close()
	}

	nodes2, co2 := openFleet()
	// A shard that fails its read fails the recovery read loudly instead of
	// passing for a thinner fleet.
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{ErrRate: 1, Count: 1})
	if rec, err := recoveredItems(nodes2); err == nil {
		faultinject.Reset()
		t.Fatalf("a failed shard read recovered %d items and no error", len(rec))
	}
	faultinject.Reset()
	rec, err := recoveredItems(nodes2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 300 {
		t.Fatalf("recovered %d items, want 300 (299 originals + upsert, delete gone)", len(rec))
	}
	for i := 1; i < len(rec); i++ {
		if rec[i-1].ID >= rec[i].ID {
			t.Fatalf("recovered items not ID-sorted at %d: %d >= %d", i, rec[i-1].ID, rec[i].ID)
		}
	}
	ids := make(map[int64]bool, len(rec))
	for _, it := range rec {
		ids[it.ID] = true
	}
	if ids[1] || !ids[777777] {
		t.Fatalf("recovered union wrong: has1=%v has777777=%v", ids[1], ids[777777])
	}
	if _, err := co2.Bootstrap(rec); err != nil {
		t.Fatalf("re-Bootstrap: %v", err)
	}
	rep := co2.Range(context.Background(), geom.NewAABB(geom.V(-1e6, -1e6, -1e6), geom.V(1e6, 1e6, 1e6)))
	if rep.Err != nil || rep.Degraded || len(rep.Items) != 300 {
		t.Fatalf("post-recovery range: err=%v degraded=%v count=%d", rep.Err, rep.Degraded, len(rep.Items))
	}
}
