package persist

// Randomized round-trip property test (the durability analogue of the
// cross-algorithm join conformance suite): for every index family with a
// frozen compact snapshot, generate random datasets — uniform and clustered,
// several seeds each — freeze, persist through a real Store (segment +
// manifest on disk), recover, and assert that range, kNN and self-join
// results are identical to the in-memory snapshot's. The durable form of a
// shard is an R-Tree image: an R-Tree snapshot is written as itself, any
// other family's items as the R-Tree over them, and the family is rebuilt
// from the items recovery hands back. "Identical" is exact: same items in
// the same order for range/kNN (the recovered structure is either a
// byte-level transcription or a deterministic rebuild from the identical
// item list), same canonical pair set for joins.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/kdtree"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

// freezeFunc builds the family's frozen snapshot from an item list. The same
// function runs on both sides of the round trip, so a rebuild from recovered
// items is deterministic.
type freezeFunc func(bounds geom.AABB, items []index.Item) index.ReadIndex

func familyFreezers() map[string]freezeFunc {
	return map[string]freezeFunc{
		"rtree": func(_ geom.AABB, items []index.Item) index.ReadIndex {
			return rtree.FreezeItems(items, rtree.Config{})
		},
		"grid": func(bounds geom.AABB, items []index.Item) index.ReadIndex {
			return grid.FreezeItems(items, grid.Config{Universe: bounds.Expand(1e-9), CellsPerDim: 12})
		},
		"octree": func(bounds geom.AABB, items []index.Item) index.ReadIndex {
			return octree.FreezeItems(items, octree.Config{Universe: bounds.Expand(1e-9), LeafCapacity: 24})
		},
		"kdtree": func(_ geom.AABB, items []index.Item) index.ReadIndex {
			pts := make([]kdtree.Point, len(items))
			for i, it := range items {
				pts[i] = kdtree.Point{ID: it.ID, Pos: it.Box.Center()}
			}
			return kdtreeAdapter{kdtree.FreezePoints(pts)}
		},
	}
}

// kdtreeAdapter lifts the point-based KD-Tree snapshot into the item-based
// read contract (points become degenerate boxes), so the property test
// drives every family through one surface.
type kdtreeAdapter struct{ c *kdtree.Compact }

func (a kdtreeAdapter) Name() string { return a.c.Name() }
func (a kdtreeAdapter) Len() int     { return a.c.Len() }

func (a kdtreeAdapter) RangeVisit(q geom.AABB, visit func(index.Item) bool) {
	a.c.RangeVisit(q, func(p kdtree.Point) bool {
		return visit(index.Item{ID: p.ID, Box: geom.PointAABB(p.Pos)})
	})
}

func (a kdtreeAdapter) KNNInto(p geom.Vec3, k int, buf []index.Item) []index.Item {
	for _, pt := range a.c.KNN(p, k) {
		buf = append(buf, index.Item{ID: pt.ID, Box: geom.PointAABB(pt.Pos)})
	}
	return buf
}

func datasetItems(t *testing.T, clustered bool, n int, seed int64) ([]index.Item, geom.AABB) {
	t.Helper()
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	var d *datagen.Dataset
	if clustered {
		d = datagen.GenerateClustered(datagen.ClusteredConfig{N: n, Clusters: 6, Universe: u, Seed: seed})
	} else {
		d = datagen.GenerateUniform(datagen.UniformConfig{N: n, Universe: u, Seed: seed})
	}
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items, u
}

// persistRoundTrip pushes one frozen snapshot through a real on-disk store
// and returns what recovery hands back. An R-Tree snapshot is written as
// itself; any other family's items are written as the R-Tree over them.
func persistRoundTrip(t *testing.T, dir string, snap index.ReadIndex, bounds geom.AABB, items []index.Item) ShardRecord {
	t.Helper()
	ps, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	c, ok := snap.(*rtree.Compact)
	if !ok {
		c = rtree.FreezeItems(items, rtree.Config{})
	}
	rec := ShardRecord{Bounds: bounds, RTree: c}
	if err := ps.SaveEpoch(1, 0, []ShardRecord{rec}); err != nil {
		t.Fatal(err)
	}
	recovered, err := ps.Recover(RecoverOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.EpochSeq != 1 || len(recovered.Shards) != 1 {
		t.Fatalf("recovery: epoch %d, %d shards", recovered.EpochSeq, len(recovered.Shards))
	}
	return recovered.Shards[0]
}

// recoveredItems returns every item of a recovered R-Tree in ID order — the
// order the datasets are generated in, so a family rebuilt from them is
// built from the identical item list.
func recoveredItems(c *rtree.Compact) []index.Item {
	items := index.VisitAll(c, c.Bounds().Expand(1))
	slices.SortFunc(items, func(a, b index.Item) int { return cmp.Compare(a.ID, b.ID) })
	return items
}

func assertSameResults(t *testing.T, label string, want, got []index.Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results in memory, %d recovered", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d: %+v in memory, %+v recovered", label, i, want[i], got[i])
		}
	}
}

func TestRoundTripPropertyAllFamilies(t *testing.T) {
	const (
		elements = 1200
		queries  = 40
		knnK     = 8
	)
	for name, freeze := range familyFreezers() {
		for _, clustered := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				shape := "uniform"
				if clustered {
					shape = "clustered"
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, shape, seed), func(t *testing.T) {
					items, universe := datasetItems(t, clustered, elements, seed)
					bounds := boundsOf(items)
					inMem := freeze(bounds, items)

					shard := persistRoundTrip(t, t.TempDir(), inMem, bounds, items)
					var recovered index.ReadIndex = shard.RTree
					if _, native := inMem.(*rtree.Compact); !native {
						recovered = freeze(shard.Bounds, recoveredItems(shard.RTree))
					}
					if recovered.Len() != inMem.Len() {
						t.Fatalf("recovered %d items, in-memory %d", recovered.Len(), inMem.Len())
					}

					rqs := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
						N: queries, Selectivity: 1e-3, Universe: universe, Seed: seed + 100,
					})
					for qi, q := range rqs {
						assertSameResults(t, fmt.Sprintf("range[%d]", qi),
							index.VisitAll(inMem, q), index.VisitAll(recovered, q))
					}
					for qi, q := range rqs[:10] {
						p := q.Center()
						want := inMem.KNNInto(p, knnK, nil)
						got := recovered.KNNInto(p, knnK, nil)
						assertSameResults(t, fmt.Sprintf("knn[%d]", qi), want, got)
					}
				})
			}
		}
	}
}

// TestRoundTripJoinIdentical drives the PR-4 join machinery over the
// recovered item set and asserts the canonical pair list matches the
// in-memory one — for the planner's pick and for every forced algorithm.
func TestRoundTripJoinIdentical(t *testing.T) {
	items, _ := datasetItems(t, true, 900, 5)
	bounds := boundsOf(items)

	shard := persistRoundTrip(t, t.TempDir(), grid.FreezeItems(items, grid.Config{
		Universe: bounds.Expand(1e-9), CellsPerDim: 10,
	}), bounds, items)

	const eps = 1.5
	var pl join.Planner
	run := func(items []index.Item) []join.Pair {
		plan := pl.PlanSelf(items, join.Options{Eps: eps})
		defer plan.Close()
		pairs, _ := plan.RunParallel(context.Background(), 4)
		return pairs
	}
	want := run(items)
	got := run(recoveredItems(shard.RTree))
	if len(want) != len(got) {
		t.Fatalf("join pairs: %d in memory, %d recovered", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("join pair %d: %+v in memory, %+v recovered", i, want[i], got[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("join produced no pairs — eps too small for the property to bite")
	}
}
