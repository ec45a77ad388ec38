package cluster

// Tests of the range limit pushed into the node tasks: a limited range holds
// exactly min(limit, truth) items of the truth — on a healthy fleet the
// unlimited reply cut to the limit — under failovers too (hedges:
// TestClusterHedgedStragglersKeepTheirBuffers), and no node task produces
// more than limit items.

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// limitedRange runs one range with limit through Query.
func limitedRange(co *Coordinator, box geom.AABB, limit int) Reply {
	return co.Query(serve.Request{Op: serve.OpRange, Query: box, Limit: limit})
}

// checkLimited requires a complete limited reply of min(limit, truth)
// distinct items, every one of them in the truth.
func checkLimited(t *testing.T, what string, rep Reply, truth []int64, limit int) bool {
	t.Helper()
	want := len(truth)
	if limit > 0 {
		want = min(limit, want)
	}
	got := sortedIDs(rep.Items)
	ok := rep.Err == nil && !rep.Degraded && len(got) == want
	for i, id := range got {
		_, in := slices.BinarySearch(truth, id)
		ok = ok && in && (i == 0 || got[i-1] != id)
	}
	if !ok {
		t.Errorf("%s limit %d: err=%v degraded=%v, %d items, want %d distinct items of the %d-item truth",
			what, limit, rep.Err, rep.Degraded, len(got), want, len(truth))
	}
	return ok
}

// randomBox is a cube of side 1..61 inside the clusterItems universe.
func randomBox(rng *rand.Rand) geom.AABB {
	lo := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
	return geom.NewAABB(lo, lo.Add(geom.V(1, 1, 1).Scale(1+rng.Float64()*60)))
}

// TestClusterLimitedRange: on a healthy fleet a limited range is the
// unlimited reply cut to the limit, and the node tasks produce at most limit
// items each — the work pin: a task stops at its limit instead of shipping
// every match.
func TestClusterLimitedRange(t *testing.T) {
	items := clusterItems(3000, 81)
	co, _ := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 30; i++ {
		box := randomBox(rng)
		if i == 0 {
			box = universe()
		}
		truth := bruteRange(items, box)
		all := limitedRange(co, box, 0)
		if !checkLimited(t, "unlimited", all, truth, 0) {
			continue
		}
		for _, limit := range []int{1, 16, 1000, len(truth) - 1, len(truth), -1} {
			before := co.nodeItems.Load()
			rep := limitedRange(co, box, limit)
			produced := co.nodeItems.Load() - before
			if !checkLimited(t, "healthy", rep, truth, limit) {
				continue
			}
			if limit > 0 && !slices.Equal(rep.Items, all.Items[:len(rep.Items)]) {
				t.Errorf("box %v limit %d: not the unlimited reply's first %d items", box, limit, len(rep.Items))
			}
			if limit > 0 && produced > int64(limit*rep.FanOut) {
				t.Errorf("box %v limit %d: node tasks produced %d items over %d tasks", box, limit, produced, rep.FanOut)
			}
		}
	}
}

// TestClusterDegradedStoppedTaskFailsOver: a node whose first shard fails
// under a limited task still stops at the limit on its other shards, but
// its reply is degraded, so the task is too: the node's error is recorded,
// its tiles move to their next owner, and the reply comes back complete.
func TestClusterDegradedStoppedTaskFailsOver(t *testing.T) {
	items := clusterItems(3000, 91)
	co, _ := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	faultinject.SetSeed(1)
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{ErrRate: 1, Count: 1})

	rep := limitedRange(co, universe(), 5)
	checkLimited(t, "shard fault", rep, bruteRange(items, universe()), 5)
	if rep.Failovers == 0 || len(rep.NodeErrors) != 1 || !strings.Contains(rep.NodeErrors[0].Err, "degraded reply") {
		t.Fatalf("failovers %d, node errors %v: want the degraded task's tiles moved on", rep.Failovers, rep.NodeErrors)
	}
}

// TestLimitedVisitorCountsKeptItems: a task answering for one of its node's
// tiles stops after limit items of that tile, not after limit items of the
// node's scan, so it keeps min(limit, the tile's matches) whichever tiles
// the scan visits first.
func TestLimitedVisitorCountsKeptItems(t *testing.T) {
	items := clusterItems(3000, 101)
	co, _ := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	v := co.acquireView()
	defer co.releaseView(v)
	const limit = 16
	f := co.newFanout(context.Background(), v)
	f.q, f.limit, f.state = universe(), limit, make([]uint8, len(f.place.tiles))
	perTile := make([]int, len(f.place.tiles))
	for _, it := range items {
		perTile[f.place.Route(it.Box)]++
	}
	for ti, tile := range f.place.tiles {
		for _, node := range tile.Owners {
			task := &fanTask{node: node, tiles: []int{ti}}
			rep := v.Nodes[node].Ref.Query(serve.Request{Op: serve.OpRange, Query: f.q, Visit: f.visitor(task)})
			if rep.Err != nil || len(task.items) != min(limit, perTile[ti]) {
				t.Errorf("tile %d on node %d: err=%v, kept %d items, want %d", ti, node, rep.Err, len(task.items), min(limit, perTile[ti]))
			}
			for _, it := range task.items {
				if f.place.Route(it.Box) != ti {
					t.Fatalf("tile %d on node %d: kept item %d of tile %d", ti, node, it.ID, f.place.Route(it.Box))
				}
			}
		}
	}
}
