package index_test

// Cross-family conformance for the flat-memory layouts: every compact
// (frozen) snapshot must answer range and kNN queries exactly like the
// mutable index it was frozen from — and therefore, transitively, like the
// linear-scan baseline — and the frozen R-Tree's visitor paths must agree
// with the pointer tree's classic paths.

import (
	"math/rand"
	"sort"
	"testing"

	"spatialsim/internal/core"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

func compactConformanceItems(n int, seed int64) ([]index.Item, geom.AABB) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(50, 50, 50))
	r := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		half := geom.V(r.Float64(), r.Float64(), r.Float64())
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, half)}
	}
	return items, u
}

func idsOf(items []index.Item) []int64 {
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDSets(t *testing.T, name string, qi int, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s query %d: got %d results, want %d", name, qi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s query %d: result %d = id %d, want %d", name, qi, i, got[i], want[i])
		}
	}
}

// frozenFamilies returns every compact snapshot as an index.ReadIndex over
// the given items, paired with its mutable source for counter-free
// comparison against the scan baseline.
func frozenFamilies(items []index.Item, u geom.AABB) []index.ReadIndex {
	rt := rtree.NewDefault()
	rt.BulkLoad(items)
	g := grid.New(grid.Config{Universe: u, CellsPerDim: 20})
	g.BulkLoad(items)
	oc := octree.New(octree.Config{Universe: u})
	oc.BulkLoad(items)
	lo := octree.New(octree.Config{Universe: u, Loose: true})
	lo.BulkLoad(items)
	si := core.New(core.Config{Universe: u})
	si.BulkLoad(items)
	scan := index.NewLinearScan()
	scan.BulkLoad(items)
	return []index.ReadIndex{
		rt.Freeze(), g.Freeze(), oc.Freeze(), lo.Freeze(), si.Freeze(), scan,
	}
}

func TestCompactFamiliesConformToScanBaseline(t *testing.T) {
	items, u := compactConformanceItems(3000, 51)
	scan := index.NewLinearScan()
	scan.BulkLoad(items)
	families := frozenFamilies(items, u)
	r := rand.New(rand.NewSource(52))
	for qi := 0; qi < 40; qi++ {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		q := geom.AABBFromCenter(c, geom.V(3, 3, 3))
		want := idsOf(index.SearchAll(scan, q))
		for _, ri := range families {
			got := idsOf(index.VisitAll(ri, q))
			equalIDSets(t, ri.Name(), qi, got, want)
		}
	}
}

func TestCompactFamiliesKNNConformToScanBaseline(t *testing.T) {
	items, u := compactConformanceItems(2000, 53)
	scan := index.NewLinearScan()
	scan.BulkLoad(items)
	families := frozenFamilies(items, u)
	r := rand.New(rand.NewSource(54))
	for qi := 0; qi < 15; qi++ {
		p := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		for _, k := range []int{1, 5, 17} {
			want := scan.KNN(p, k)
			for _, ri := range families {
				got := ri.KNNInto(p, k, nil)
				if len(got) != len(want) {
					t.Fatalf("%s: k=%d got %d results, want %d", ri.Name(), k, len(got), len(want))
				}
				for j := range got {
					gd := got[j].Box.Distance2ToPoint(p)
					wd := want[j].Box.Distance2ToPoint(p)
					if gd != wd {
						t.Fatalf("%s: k=%d rank %d dist2 %g, want %g", ri.Name(), k, j, gd, wd)
					}
				}
			}
		}
	}
}

// TestBatchVisitPathsMatchClassicBatchPaths: the frozen R-Tree's visitor
// paths (RangeVisit, KNNInto) answer a query batch exactly like the pointer
// tree's classic Search and KNN.
func TestBatchVisitPathsMatchClassicBatchPaths(t *testing.T) {
	items, _ := compactConformanceItems(4000, 55)
	rt := rtree.NewDefault()
	rt.BulkLoad(items)
	frozen := rt.Freeze()
	r := rand.New(rand.NewSource(56))
	for i := 0; i < 64; i++ {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		q := geom.AABBFromCenter(c, geom.V(2.5, 2.5, 2.5))
		equalIDSets(t, "batch-range-visit", i, idsOf(index.VisitAll(frozen, q)), idsOf(index.SearchAll(rt, q)))
	}

	for i := 0; i < 32; i++ {
		p := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		classic := rt.KNN(p, 7)
		visit := frozen.KNNInto(p, 7, nil)
		if len(visit) != len(classic) {
			t.Fatalf("point %d: got %d neighbors, want %d", i, len(visit), len(classic))
		}
		for j := range visit {
			gd := visit[j].Box.Distance2ToPoint(p)
			wd := classic[j].Box.Distance2ToPoint(p)
			if gd != wd {
				t.Fatalf("point %d rank %d: dist2 %g, want %g", i, j, gd, wd)
			}
		}
	}
}
