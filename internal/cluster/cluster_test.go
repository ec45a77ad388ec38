package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

func clusterItems(n int, seed int64) []index.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		h := geom.V(0.4, 0.4, 0.4)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.NewAABB(c.Sub(h), c.Add(h))}
	}
	return items
}

func universe() geom.AABB {
	return geom.NewAABB(geom.V(-1e6, -1e6, -1e6), geom.V(1e6, 1e6, 1e6))
}

// newTestCluster builds an in-memory fleet plus its coordinator.
func newTestCluster(t *testing.T, nodes, replication int, hedge time.Duration) (*Coordinator, []*Node) {
	t.Helper()
	trs := make([]Transport, nodes)
	nds := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		st, err := serve.New(serve.Config{Shards: 4})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(st.Close)
		nds[i] = NewNode(nodeName(i), st)
		trs[i] = nds[i]
	}
	co, err := New(Config{Transports: trs, Replication: replication, HedgeAfter: hedge})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(co.Close)
	return co, nds
}

func nodeName(i int) string { return string(rune('a' + i)) }

func ids(items []index.Item) []int64 {
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

// sortedIDs is the reply's ID set in ascending order: range replies come in
// task-launch order, so set comparisons sort first.
func sortedIDs(items []index.Item) []int64 {
	out := ids(items)
	slices.Sort(out)
	return out
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterConformance checks the headline acceptance bar: a 3-node
// coordinator answers range, kNN and join byte-identically to one store
// holding the same dataset — kNN in the same (distance, ID) order, since
// both gather through one merge.
func TestClusterConformance(t *testing.T) {
	items := clusterItems(500, 42)
	co, _ := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	single, err := serve.New(serve.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	single.Bootstrap(items)

	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 25; q++ {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		h := geom.V(3+rng.Float64()*15, 3+rng.Float64()*15, 3+rng.Float64()*15)
		box := geom.NewAABB(c.Sub(h), c.Add(h))
		rep := co.Range(context.Background(), box)
		if rep.Err != nil || rep.Degraded {
			t.Fatalf("range %d: err=%v degraded=%v", q, rep.Err, rep.Degraded)
		}
		want := single.Query(serve.Request{Op: serve.OpRange, Query: box}).Items
		if !sameIDs(sortedIDs(rep.Items), sortedIDs(want)) {
			t.Fatalf("range %d: cluster %v != single %v", q, sortedIDs(rep.Items), sortedIDs(want))
		}
	}

	for q := 0; q < 25; q++ {
		p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		k := 1 + rng.Intn(20)
		rep := co.KNN(context.Background(), p, k)
		if rep.Err != nil || rep.Degraded {
			t.Fatalf("knn %d: err=%v degraded=%v", q, rep.Err, rep.Degraded)
		}
		want := single.Query(serve.Request{Op: serve.OpKNN, Point: p, K: k}).Items
		if !sameIDs(ids(rep.Items), ids(want)) {
			t.Fatalf("knn %d (k=%d): cluster %v != single %v", q, k, ids(rep.Items), ids(want))
		}
	}

	for _, eps := range []float64{0, 0.5, 2} {
		rep := co.Join(context.Background(), serve.JoinRequest{Eps: eps})
		if rep.Err != nil || rep.Degraded {
			t.Fatalf("join eps=%v: err=%v degraded=%v", eps, rep.Err, rep.Degraded)
		}
		want := single.SelfJoin(serve.JoinRequest{Eps: eps})
		if len(rep.Pairs) != len(want.Pairs) {
			t.Fatalf("join eps=%v: %d pairs != %d", eps, len(rep.Pairs), len(want.Pairs))
		}
		for i := range want.Pairs {
			if rep.Pairs[i] != want.Pairs[i] {
				t.Fatalf("join eps=%v: pair %d %v != %v", eps, i, rep.Pairs[i], want.Pairs[i])
			}
		}
		// A limit reaches the coordinator's join: the first pairs of the
		// same list, and the exact count, which cluster_join_exec reports.
		tr := obs.NewTrace("/v1/join")
		limited := co.Join(obs.WithTrace(context.Background(), tr), serve.JoinRequest{Eps: eps, Limit: 3})
		if n := min(3, len(want.Pairs)); limited.Err != nil || limited.JoinCount != len(want.Pairs) ||
			!slices.Equal(limited.Pairs, want.Pairs[:n]) {
			t.Fatalf("join eps=%v limit 3: err=%v count %d pairs %v, want count %d and %v",
				eps, limited.Err, limited.JoinCount, limited.Pairs, len(want.Pairs), want.Pairs[:n])
		}
		var exec *obs.SpanJSON
		for _, c := range tr.Finish().Children {
			if c.Stage == "cluster_join_exec" {
				exec = c
			}
		}
		if exec == nil || exec.Attrs["pairs"] != len(want.Pairs) || exec.Attrs["kept"] != len(limited.Pairs) {
			t.Fatalf("join eps=%v limit 3: cluster_join_exec span %+v, want pairs %d kept %d",
				eps, exec, len(want.Pairs), len(limited.Pairs))
		}
	}
}

// TestClusterApplyRoutesAndDeletes exercises the routing invariants: a moved
// item lands on its new tile's owners only (the implicit delete scrubs the
// old ones, so the merged result has no duplicate), and an explicit delete
// vanishes everywhere.
func TestClusterApplyRoutesAndDeletes(t *testing.T) {
	items := clusterItems(300, 3)
	co, _ := newTestCluster(t, 3, 1, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}

	// Move item 5 across the space (very likely a different tile) and delete
	// item 7.
	moved := geom.NewAABB(geom.V(95, 95, 95), geom.V(96, 96, 96))
	if _, err := co.Apply([]serve.Update{
		{ID: 5, Box: moved},
		{ID: 7, Delete: true},
	}); err != nil {
		t.Fatal(err)
	}

	rep := co.Range(context.Background(), universe())
	if rep.Err != nil || rep.Degraded {
		t.Fatalf("range: err=%v degraded=%v", rep.Err, rep.Degraded)
	}
	if len(rep.Items) != len(items)-1 {
		t.Fatalf("items = %d, want %d", len(rep.Items), len(items)-1)
	}
	seen := make(map[int64]int)
	for _, it := range rep.Items {
		seen[it.ID]++
		if it.ID == 5 && it.Box != moved {
			t.Fatalf("item 5 box = %v, want moved %v", it.Box, moved)
		}
	}
	if seen[7] != 0 {
		t.Fatal("deleted item 7 still served")
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d served %d times", id, n)
		}
	}
}

// TestClusterApplyBeforeBootstrap pins the write contract: no placement, no
// routing.
func TestClusterApplyBeforeBootstrap(t *testing.T) {
	co, _ := newTestCluster(t, 2, 1, 0)
	if _, err := co.Apply([]serve.Update{{ID: 1, Box: universe()}}); !errors.Is(err, ErrNotBootstrapped) {
		t.Fatalf("err = %v, want ErrNotBootstrapped", err)
	}
	// Reads before bootstrap are empty, not errors.
	rep := co.Range(context.Background(), universe())
	if rep.Err != nil || rep.Degraded || len(rep.Items) != 0 {
		t.Fatalf("pre-bootstrap range: %+v", rep)
	}
}

// TestClusterSwapStormNoTornEpochs is the torn-epoch acceptance gate: while a
// writer publishes generations as fast as it can, every concurrent read must
// observe exactly one generation — all n items present, all carrying the same
// generation marker — and the observed cluster epoch must be monotone.
func TestClusterSwapStormNoTornEpochs(t *testing.T) {
	const (
		n    = 300
		gens = 10
	)
	co, _ := newTestCluster(t, 3, 2, 0)
	base := clusterItems(n, 11)
	if _, err := co.Bootstrap(base); err != nil {
		t.Fatal(err)
	}

	genBox := func(i int, gen int) geom.AABB {
		c := base[i].Box.Center()
		// The generation rides in the Z size: gen g makes the half-extent
		// 0.5+g, recoverable from any one item.
		h := geom.V(0.4, 0.4, 0.5+float64(gen))
		return geom.NewAABB(c.Sub(h), c.Add(h))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := co.Range(context.Background(), universe())
				if rep.Err != nil || rep.Degraded {
					errc <- rep.Err
					return
				}
				if rep.Epoch < lastEpoch {
					errc <- errors.New("cluster epoch went backwards")
					return
				}
				lastEpoch = rep.Epoch
				if len(rep.Items) != n {
					errc <- errors.New("torn read: wrong item count")
					return
				}
				// Generations are 2.0 apart in Z size; anything beyond float
				// rounding noise is a torn epoch.
				want := rep.Items[0].Box.Size().Z
				for _, it := range rep.Items {
					if d := it.Box.Size().Z - want; d > 0.5 || d < -0.5 {
						errc <- errors.New("torn read: mixed generations in one reply")
						return
					}
				}
			}
		}()
	}

	for g := 1; g <= gens; g++ {
		batch := make([]serve.Update, n)
		for i := range batch {
			batch[i] = serve.Update{ID: base[i].ID, Box: genBox(i, g)}
		}
		if _, err := co.Apply(batch); err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("reader: %v", err)
	default:
	}
	if got := co.Epoch(); got != uint64(gens)+1 {
		t.Fatalf("cluster epoch = %d, want %d", got, gens+1)
	}
}

// pickIsolatedBox finds a query box whose matches live only on one tile's
// owners (every other node's MBR is disjoint, so the fan-out prunes it) —
// the topology where failover and hedging genuinely fire, because the
// initial scatter targets just the tile's primary.
func pickIsolatedBox(t *testing.T, p Placement, nodes int, items []index.Item) (int, geom.AABB) {
	t.Helper()
	tiles := p.Tiles()
	nodeMBR := make([]geom.AABB, nodes)
	nodeSeen := make([]bool, nodes)
	tileMBR := make([]geom.AABB, len(tiles))
	tileSeen := make([]bool, len(tiles))
	for _, it := range items {
		ti := p.Route(it.Box)
		if !tileSeen[ti] {
			tileMBR[ti], tileSeen[ti] = it.Box, true
		} else {
			tileMBR[ti] = tileMBR[ti].Union(it.Box)
		}
		for _, o := range tiles[ti].Owners {
			if !nodeSeen[o] {
				nodeMBR[o], nodeSeen[o] = it.Box, true
			} else {
				nodeMBR[o] = nodeMBR[o].Union(it.Box)
			}
		}
	}
	for ti := range tiles {
		if !tileSeen[ti] {
			continue
		}
		owner := make(map[int]bool)
		for _, o := range tiles[ti].Owners {
			owner[o] = true
		}
		for _, shrink := range []float64{0.5, 0.3, 0.2} {
			c, s := tileMBR[ti].Center(), tileMBR[ti].Size().Scale(shrink/2)
			box := geom.NewAABB(c.Sub(s), c.Add(s))
			ok := true
			for o := 0; o < nodes; o++ {
				if !owner[o] && nodeSeen[o] && box.Intersects(nodeMBR[o]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			hit := false
			for _, it := range items {
				if it.Box.Intersects(box) {
					hit = true
					break
				}
			}
			if hit {
				return ti, box
			}
		}
	}
	t.Fatal("no tile-isolated query box found for this dataset/placement")
	return 0, geom.AABB{}
}

func bruteRange(items []index.Item, box geom.AABB) []int64 {
	var out []int64
	for _, it := range items {
		if it.Box.Intersects(box) {
			out = append(out, it.ID)
		}
	}
	slices.Sort(out)
	return out
}

// TestClusterAbsorbsKilledNodeOnFullFanout: a universe query targets every
// node up front, so a single failure with replication 2 is absorbed by the
// replicas already in flight — complete, not degraded, error still recorded.
func TestClusterAbsorbsKilledNodeOnFullFanout(t *testing.T) {
	items := clusterItems(400, 21)
	co, nds := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	nds[1].Kill()
	defer nds[1].Revive()

	rep := co.Range(context.Background(), universe())
	if rep.Err != nil {
		t.Fatalf("range err: %v", rep.Err)
	}
	if rep.Degraded {
		t.Fatalf("degraded with a live replica: %+v", rep.NodeErrors)
	}
	if len(rep.Items) != len(items) {
		t.Fatalf("items = %d, want %d (replicas must keep the answer complete)", len(rep.Items), len(items))
	}
	// NodeErrors may or may not carry the dead node: once every tile is
	// resolved the scatter returns without waiting for stragglers.
}

// TestClusterFailoverCoversKilledNode: a query isolated to one tile scatters
// to the tile's primary only; with the primary dead, the read must fail over
// to the replica and come back complete.
func TestClusterFailoverCoversKilledNode(t *testing.T) {
	items := clusterItems(400, 21)
	co, nds := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	ti, box := pickIsolatedBox(t, co.Placement(), 3, items)
	primary := co.Placement().Tiles()[ti].Owners[0]
	nds[primary].Kill()
	defer nds[primary].Revive()

	rep := co.Range(context.Background(), box)
	if rep.Err != nil {
		t.Fatalf("range err: %v", rep.Err)
	}
	if rep.Degraded {
		t.Fatalf("degraded with a live replica: %+v", rep.NodeErrors)
	}
	if want := bruteRange(items, box); !sameIDs(sortedIDs(rep.Items), want) {
		t.Fatalf("failover result %v != truth %v", sortedIDs(rep.Items), want)
	}
	if rep.Failovers == 0 {
		t.Fatal("expected failover queries after primary kill")
	}
	if len(rep.NodeErrors) == 0 {
		t.Fatal("node error detail missing from failover reply")
	}
}

// TestClusterDegradedNeverWrong: with replication 1 a killed node's tile is
// simply gone — the reply must degrade, and everything it does carry must be
// correct (a strict subset of the truth, no duplicates, no stray items).
func TestClusterDegradedNeverWrong(t *testing.T) {
	items := clusterItems(400, 23)
	co, nds := newTestCluster(t, 3, 1, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	truth := make(map[int64]geom.AABB, len(items))
	for _, it := range items {
		truth[it.ID] = it.Box
	}
	nds[2].Kill()
	defer nds[2].Revive()

	rep := co.Range(context.Background(), universe())
	if rep.Err != nil {
		t.Fatalf("range err: %v", rep.Err)
	}
	if !rep.Degraded {
		t.Fatal("replication 1 + dead node must degrade")
	}
	if len(rep.Items) == 0 || len(rep.Items) >= len(items) {
		t.Fatalf("degraded items = %d, want a proper non-empty subset of %d", len(rep.Items), len(items))
	}
	checkReplyItems(t, "degraded range", truth, rep.Items)

	// All nodes dead: zero progress is an error, not an empty success.
	nds[0].Kill()
	nds[1].Kill()
	defer nds[0].Revive()
	defer nds[1].Revive()
	rep = co.Range(context.Background(), universe())
	if !errors.Is(rep.Err, ErrUnavailable) {
		t.Fatalf("all-dead err = %v, want ErrUnavailable", rep.Err)
	}
}

// TestClusterShardFailuresAreUnavailable: every node is up but every shard
// fails its read, so each node store fails its task rather than answering
// degraded with nothing, and the coordinator, with no task that
// contributed, fails the read with ErrUnavailable for range and kNN alike.
func TestClusterShardFailuresAreUnavailable(t *testing.T) {
	co, _ := newTestCluster(t, 3, 1, 0)
	if _, err := co.Bootstrap(clusterItems(500, 42)); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{ErrRate: 1})
	for name, rep := range map[string]Reply{
		"range": co.Range(context.Background(), universe()),
		"knn":   co.KNN(context.Background(), universe().Center(), 5),
	} {
		if !errors.Is(rep.Err, ErrUnavailable) || rep.Degraded || len(rep.NodeErrors) == 0 {
			t.Errorf("%s: err=%v degraded=%v node errors %v, want ErrUnavailable with node detail", name, rep.Err, rep.Degraded, rep.NodeErrors)
		}
	}
}

// TestClusterStageFailureAbortsSwap: a node that cannot stage aborts the
// whole swap — the cluster epoch does not advance and readers keep seeing the
// old generation in full.
func TestClusterStageFailureAbortsSwap(t *testing.T) {
	items := clusterItems(200, 31)
	co, nds := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	before := co.Epoch()

	nds[1].Kill()
	_, err := co.Apply([]serve.Update{{ID: 9999, Box: universe()}})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("apply err = %v, want ErrNodeDown", err)
	}
	if co.Epoch() != before {
		t.Fatalf("epoch advanced to %d after aborted swap", co.Epoch())
	}
	st := co.Stats()
	if st.StageFailures == 0 {
		t.Fatal("stage failure not counted")
	}
	nds[1].Revive()

	// The view is untouched: a full read still serves every original item,
	// and the retried apply succeeds.
	rep := co.Range(context.Background(), universe())
	if rep.Err != nil || rep.Degraded || len(rep.Items) != len(items) {
		t.Fatalf("post-abort range: err=%v degraded=%v items=%d", rep.Err, rep.Degraded, len(rep.Items))
	}
	if _, err := co.Apply([]serve.Update{{ID: 9999, Box: items[0].Box}}); err != nil {
		t.Fatalf("retried apply: %v", err)
	}
	if co.Epoch() != before+1 {
		t.Fatalf("epoch = %d after retry, want %d", co.Epoch(), before+1)
	}
}

// TestClusterHedgedRequests: a slow (not failed) primary on an isolated tile
// trips the hedge timer; the replica answers first and the reply comes back
// complete, fast, with the hedge counted.
func TestClusterHedgedRequests(t *testing.T) {
	items := clusterItems(400, 41)
	co, _ := newTestCluster(t, 3, 2, 5*time.Millisecond)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	ti, box := pickIsolatedBox(t, co.Placement(), 3, items)
	primary := co.Placement().Tiles()[ti].Owners[0]
	defer faultinject.Reset()
	faultinject.Enable(FaultNodeQuery+":"+nodeName(primary), faultinject.Spec{
		LatencyRate: 1, Latency: 300 * time.Millisecond,
	})

	t0 := time.Now()
	rep := co.Range(context.Background(), box)
	if rep.Err != nil || rep.Degraded {
		t.Fatalf("range: err=%v degraded=%v", rep.Err, rep.Degraded)
	}
	if want := bruteRange(items, box); !sameIDs(sortedIDs(rep.Items), want) {
		t.Fatalf("hedged result %v != truth %v", sortedIDs(rep.Items), want)
	}
	if rep.Hedges == 0 {
		t.Fatal("expected hedged queries against the slow primary's tile")
	}
	if el := time.Since(t0); el >= 300*time.Millisecond {
		t.Fatalf("hedge did not cut latency: %v", el)
	}
}

// TestClusterHedgedStragglersKeepTheirBuffers: with hedging on and one node
// slowed past the hedge, fan-outs return while that node's tasks still run,
// and the stragglers append into their buffers beside later queries that
// take buffers from the same pool. Only received tasks give theirs back, so
// every reply stays exact (and -race sees no shared buffer). Each box is
// also read with limit 16: a hedge then races a task that stopped early,
// win cuts it, and the count must still be exactly min(16, truth).
func TestClusterHedgedStragglersKeepTheirBuffers(t *testing.T) {
	items := clusterItems(3000, 71)
	co, _ := newTestCluster(t, 3, 2, time.Millisecond)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	faultinject.Enable(FaultNodeQuery+":"+nodeName(1), faultinject.Spec{LatencyRate: 1, Latency: 4 * time.Millisecond})

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 40; i++ {
				box := randomBox(rng)
				want := bruteRange(items, box)
				rep := co.Range(context.Background(), box)
				if rep.Err != nil || rep.Degraded {
					t.Errorf("range %v: err=%v degraded=%v", box, rep.Err, rep.Degraded)
					return
				}
				if got := sortedIDs(rep.Items); !sameIDs(got, want) {
					t.Errorf("range %v: %d items, not the %d of the linear scan", box, len(got), len(want))
					return
				}
				if !checkLimited(t, "hedged", limitedRange(co, box, 16), want, 16) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := co.Stats(); st.Hedges == 0 {
		t.Fatal("no hedge fired: the test did not leave a straggler behind")
	}
}

// TestClusterDeadline: a context that dies mid-fan-out surfaces the serve
// deadline vocabulary on zero progress.
func TestClusterDeadline(t *testing.T) {
	items := clusterItems(200, 51)
	co, _ := newTestCluster(t, 2, 1, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	faultinject.Enable(FaultNodeQuery, faultinject.Spec{LatencyRate: 1, Latency: time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rep := co.Range(ctx, universe())
	if !errors.Is(rep.Err, serve.ErrDeadline) {
		t.Fatalf("err = %v, want serve.ErrDeadline", rep.Err)
	}
}

// TestClusterMetrics smoke-checks the spatial_cluster_* registration and a
// few counter movements.
func TestClusterMetrics(t *testing.T) {
	items := clusterItems(100, 61)
	trs := make([]Transport, 2)
	for i := range trs {
		st, err := serve.New(serve.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		trs[i] = NewNode(nodeName(i), st)
	}
	reg := newTestRegistry(t)
	co, err := New(Config{Transports: trs, Replication: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	co.Range(context.Background(), universe())
	co.KNN(context.Background(), geom.V(1, 2, 3), 5)
	co.Join(context.Background(), serve.JoinRequest{Eps: 0.5})

	text := promText(t, reg)
	for _, want := range []string{
		"spatial_cluster_epoch 1",
		"spatial_cluster_nodes 2",
		"spatial_cluster_nodes_up 2",
		"spatial_cluster_queries_total 3",
		"spatial_cluster_epoch_swaps_total 1",
		// Replication 2 of 2: one node answers each query whole, so the
		// gather amplification is exactly 1 — 100 (range) + 5 (kNN) + 100
		// (join gather) items produced by node tasks, the same 205 returned.
		"spatial_cluster_fanout_queries_total 3",
		"spatial_cluster_node_items_total 205",
		"spatial_cluster_result_items_total 205",
		`spatial_cluster_query_seconds_count{class="range"} 1`,
		`spatial_cluster_query_seconds_count{class="knn"} 1`,
		`spatial_cluster_query_seconds_count{class="join"} 1`,
	} {
		if !containsLine(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestClusterJoinRefusesBadEps: Coordinator.Join refuses NaN, infinite and
// negative Eps with serve.ErrBadRequest before any fan-out, and still joins
// a valid request.
func TestClusterJoinRefusesBadEps(t *testing.T) {
	co, _ := newTestCluster(t, 2, 1, 0)
	if _, err := co.Bootstrap(clusterItems(200, 5)); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	for _, tc := range []struct {
		eps float64
		ok  bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
		{-0.5, false}, {-math.SmallestNonzeroFloat64, false},
		{0, true}, {0.5, true},
	} {
		rep := co.Join(context.Background(), serve.JoinRequest{Eps: tc.eps})
		if tc.ok {
			if rep.Err != nil || rep.JoinItems != 200 {
				t.Fatalf("eps=%v: err=%v items=%d, want a full join", tc.eps, rep.Err, rep.JoinItems)
			}
			continue
		}
		if !errors.Is(rep.Err, serve.ErrBadRequest) || rep.Pairs != nil || rep.JoinItems != 0 {
			t.Fatalf("eps=%v: err=%v pairs=%d items=%d, want a refusal before any fetch", tc.eps, rep.Err, len(rep.Pairs), rep.JoinItems)
		}
	}
}
