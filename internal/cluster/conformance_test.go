package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/serve"
)

// truthRange is the brute-force answer to a range query over the model.
func truthRange(truth map[int64]geom.AABB, q geom.AABB) []int64 {
	var out []int64
	for id, b := range truth {
		if b.Intersects(q) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// truthKNNDist2 is the brute-force ascending list of the k smallest squared
// distances from p.
func truthKNNDist2(truth map[int64]geom.AABB, p geom.Vec3, k int) []float64 {
	d := make([]float64, 0, len(truth))
	for _, b := range truth {
		d = append(d, b.Distance2ToPoint(p))
	}
	slices.Sort(d)
	return d[:min(k, len(d))]
}

// checkReplyItems asserts the part of the contract that holds for every
// reply, complete or degraded: every item is a real item carrying its box at
// the reply's epoch, and no item appears twice.
func checkReplyItems(t *testing.T, what string, truth map[int64]geom.AABB, items []index.Item) {
	t.Helper()
	seen := make(map[int64]bool, len(items))
	for _, it := range items {
		if b, ok := truth[it.ID]; !ok || b != it.Box {
			t.Fatalf("%s: item %d box %v is not in the truth (%v)", what, it.ID, it.Box, b)
		}
		if seen[it.ID] {
			t.Fatalf("%s: item %d replied twice", what, it.ID)
		}
		seen[it.ID] = true
	}
}

// TestClusterRandomizedConformance drives fleets of 1-5 nodes at replication
// 1-3 through several Applys of items that straddle tile boundaries, move
// between tiles, leave the bootstrap extent and get deleted, and checks every
// read — healthy and under random kill sets — against a brute-force model:
// no duplicate IDs ever; complete ⇒ equal to the truth at the reply's epoch;
// degraded ⇒ a subset of it; kNN distances equal to brute force.
func TestClusterRandomizedConformance(t *testing.T) {
	for nodes := 1; nodes <= 5; nodes++ {
		for repl := 1; repl <= min(3, nodes); repl++ {
			t.Run(fmt.Sprintf("n%dr%d", nodes, repl), func(t *testing.T) {
				conformanceRun(t, nodes, repl, int64(100*nodes+repl))
			})
		}
	}
}

func conformanceRun(t *testing.T, nodes, repl int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	co, nds := newTestCluster(t, nodes, repl, 0)
	ctx := context.Background()

	randBox := func(maxHalf float64) geom.AABB {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		h := geom.V(rng.Float64()*maxHalf, rng.Float64()*maxHalf, rng.Float64()*maxHalf)
		return geom.AABBFromCenter(c, h)
	}
	truth := make(map[int64]geom.AABB)
	var boot []index.Item
	for id := int64(1); id <= 300; id++ {
		b := randBox(8) // up to 16 wide: many straddle a tile boundary
		truth[id] = b
		boot = append(boot, index.Item{ID: id, Box: b})
	}
	if _, err := co.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	nextID := int64(301)
	// outside is where one item per round is moved to: beyond the bootstrap
	// extent, where only grown tile MBRs let a query find it.
	outside := geom.V(260, -140, 50)

	check := func(round int, killed bool) {
		for q := 0; q < 12; q++ {
			box := randBox(5 + rng.Float64()*40)
			if q == 0 {
				box = geom.AABBFromCenter(outside, geom.V(30, 30, 30))
			}
			what := fmt.Sprintf("round %d range %d (killed=%v)", round, q, killed)
			rep := co.Range(ctx, box)
			if rep.Err != nil {
				if !killed {
					t.Fatalf("%s: %v", what, rep.Err)
				}
				continue
			}
			if rep.Epoch != co.Epoch() {
				t.Fatalf("%s: epoch %d, cluster is at %d", what, rep.Epoch, co.Epoch())
			}
			checkReplyItems(t, what, truth, rep.Items)
			want := truthRange(truth, box)
			for _, it := range rep.Items {
				if _, ok := slices.BinarySearch(want, it.ID); !ok {
					t.Fatalf("%s: item %d does not intersect the query", what, it.ID)
				}
			}
			if rep.Degraded && !killed {
				t.Fatalf("%s: degraded on a healthy fleet: %+v", what, rep.NodeErrors)
			}
			if !rep.Degraded && !sameIDs(sortedIDs(rep.Items), want) {
				t.Fatalf("%s: complete reply %v != truth %v", what, sortedIDs(rep.Items), want)
			}
		}
		for q := 0; q < 12; q++ {
			p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
			k := 1 + rng.Intn(25)
			if q == 0 {
				p, k = outside, 1
			}
			what := fmt.Sprintf("round %d knn %d k=%d (killed=%v)", round, q, k, killed)
			rep := co.KNN(ctx, p, k)
			if rep.Err != nil {
				if !killed {
					t.Fatalf("%s: %v", what, rep.Err)
				}
				continue
			}
			checkReplyItems(t, what, truth, rep.Items)
			if rep.Degraded {
				if !killed {
					t.Fatalf("%s: degraded on a healthy fleet: %+v", what, rep.NodeErrors)
				}
				continue
			}
			want := truthKNNDist2(truth, p, k)
			if len(rep.Items) != len(want) {
				t.Fatalf("%s: %d items, want %d", what, len(rep.Items), len(want))
			}
			for i, it := range rep.Items {
				if d := it.Box.Distance2ToPoint(p); d != want[i] {
					t.Fatalf("%s: distance[%d] = %v, want %v", what, i, d, want[i])
				}
			}
		}
	}

	for round := 0; round < 4; round++ {
		if round > 0 {
			var batch []serve.Update
			ids := make([]int64, 0, len(truth))
			for id := range truth {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids[:40] { // moves, many across tiles
				b := randBox(8)
				truth[id] = b
				batch = append(batch, serve.Update{ID: id, Box: b})
			}
			for _, id := range ids[40:55] {
				delete(truth, id)
				batch = append(batch, serve.Update{ID: id, Delete: true})
			}
			for i := 0; i < 20; i++ {
				b := randBox(8)
				truth[nextID] = b
				batch = append(batch, serve.Update{ID: nextID, Box: b})
				nextID++
			}
			far := geom.AABBFromCenter(outside.Add(geom.V(float64(round), 0, 0)), geom.V(1, 1, 1))
			truth[ids[55]] = far
			batch = append(batch, serve.Update{ID: ids[55], Box: far})
			if _, err := co.Apply(batch); err != nil {
				t.Fatalf("round %d apply: %v", round, err)
			}
		}
		check(round, false)
		for drill := 0; drill < 3; drill++ {
			for _, nd := range nds {
				if rng.Intn(3) == 0 {
					nd.Kill()
				}
			}
			check(round, true)
			for _, nd := range nds {
				nd.Revive()
			}
		}
	}
	// The moved-outside item is found after the drills too, on a healthy fleet.
	rep := co.KNN(ctx, outside, 1)
	if rep.Err != nil || rep.Degraded || len(rep.Items) != 1 || rep.Items[0].Box.Distance2ToPoint(outside) > 9 {
		t.Fatalf("item moved outside the bootstrap extent not found: %+v", rep)
	}
}

// TestClusterKNNLocalizedFanOut is the ROADMAP gate of the fan-out engine: a
// kNN whose neighbours all sit deep inside one tile contacts fewer nodes than
// the fleet has — here exactly one — and still answers exactly.
func TestClusterKNNLocalizedFanOut(t *testing.T) {
	items := clusterItems(3000, 71)
	co, _ := newTestCluster(t, 3, 2, 0)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	truth := make(map[int64]geom.AABB, len(items))
	for _, it := range items {
		truth[it.ID] = it.Box
	}
	for ti, tile := range co.Placement().Tiles() {
		p := tile.Center
		rep := co.KNN(context.Background(), p, 8)
		if rep.Err != nil || rep.Degraded {
			t.Fatalf("tile %d: err=%v degraded=%v", ti, rep.Err, rep.Degraded)
		}
		if rep.FanOut != 1 {
			t.Fatalf("tile %d: localized kNN contacted %d of 3 nodes, want 1", ti, rep.FanOut)
		}
		want := truthKNNDist2(truth, p, 8)
		for i, it := range rep.Items {
			if d := it.Box.Distance2ToPoint(p); d != want[i] {
				t.Fatalf("tile %d: distance[%d] = %v, want %v", ti, i, d, want[i])
			}
		}
	}
}

// TestClusterStragglersReleasePins pins the scatter reply channel's sizing:
// with tiles re-assigned on failure and on the hedge timer a fan-out launches
// more tasks than there are nodes, and a straggler whose send blocked after
// the fan-out returned would hold its view pin — and with it every node's
// superseded epochs — forever. The drill abandons four stalled tasks on a
// three-node fleet at a deadline, then runs a storm of failovers and hedges
// across several swaps; after Close every node store must be back to zero
// pins with every superseded epoch retired, and no goroutine may be left.
func TestClusterStragglersReleasePins(t *testing.T) {
	items := clusterItems(600, 81)
	co, nds := newTestCluster(t, 3, 2, time.Millisecond)
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine() // the node stores' own goroutines included
	defer faultinject.Reset()

	// Every node stalls past the deadline: the two primaries' tiles are hedged
	// onto the other owners, and all four tasks report only after the fan-out
	// has given up.
	faultinject.Enable(FaultNodeQuery, faultinject.Spec{LatencyRate: 1, Latency: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	rep := co.Range(ctx, universe())
	cancel()
	if !errors.Is(rep.Err, serve.ErrDeadline) || rep.FanOut <= len(nds) {
		t.Fatalf("deadline drill: err=%v fan-out=%d, want ErrDeadline and more tasks than the %d nodes", rep.Err, rep.FanOut, len(nds))
	}

	faultinject.Enable(FaultNodeQuery, faultinject.Spec{
		ErrRate: 0.3, LatencyRate: 0.5, Latency: 4 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if rep := co.Range(context.Background(), universe()); rep.Err != nil && !errors.Is(rep.Err, ErrUnavailable) {
					t.Errorf("range: %v", rep.Err)
					return
				}
			}
		}()
	}
	for g := 0; g < 5; g++ {
		if _, err := co.Apply([]serve.Update{{ID: int64(g + 1), Box: items[g].Box.Translate(geom.V(0.1, 0, 0))}}); err != nil {
			t.Fatalf("apply %d: %v", g, err)
		}
	}
	wg.Wait()
	faultinject.Reset()
	co.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := runtime.NumGoroutine() <= baseline
		for _, nd := range nds {
			st := nd.Store().Stats()
			clean = clean && st.EpochPins == 0 && st.EpochsRetired == st.EpochSwaps
		}
		if clean {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nds {
				st := nd.Store().Stats()
				t.Errorf("node %s: %d pins, %d of %d superseded epochs retired", nd.Name(), st.EpochPins, st.EpochsRetired, st.EpochSwaps)
			}
			t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
