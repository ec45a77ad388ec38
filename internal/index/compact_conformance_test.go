package index_test

// Cross-family conformance for the flat-memory layouts: every compact
// (frozen) snapshot must answer range and kNN queries exactly like the
// mutable index it was frozen from — and therefore, transitively, like the
// linear-scan baseline — and the exec batch visitor paths must agree with
// the classic batch paths.

import (
	"math/rand"
	"sort"
	"testing"

	"spatialsim/internal/core"
	"spatialsim/internal/exec"
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

func TestBatchVisitPathsMatchClassicBatchPaths(t *testing.T) {
	items, _ := compactConformanceItems(4000, 55)
	rt := rtree.NewDefault()
	rt.BulkLoad(items)
	frozen := rt.Freeze()
	r := rand.New(rand.NewSource(56))
	queries := make([]geom.AABB, 64)
	for i := range queries {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		queries[i] = geom.AABBFromCenter(c, geom.V(2.5, 2.5, 2.5))
	}
	arena := &exec.Arena{}
	visited, _ := exec.BatchRangeVisitArena(frozen, queries, exec.Options{Workers: 4}, arena)
	var total int64
	for i, q := range queries {
		classic := index.SearchAll(rt, q)
		equalIDSets(t, "batch-range-visit", i, idsOf(visited[i]), idsOf(classic))
		total += int64(len(classic))
	}
	count, _ := exec.BatchSearchCount(rt, queries, exec.Options{Workers: 4})
	if count != total {
		t.Fatalf("BatchSearchCount = %d, want %d", count, total)
	}

	points := make([]geom.Vec3, 32)
	for i := range points {
		points[i] = geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
	}
	classicKNN, _ := exec.BatchKNN(rt, points, 7, exec.Options{Workers: 4})
	visitKNN, _ := exec.BatchKNNInto(frozen, points, 7, exec.Options{Workers: 4}, arena)
	for i := range points {
		if len(visitKNN[i]) != len(classicKNN[i]) {
			t.Fatalf("point %d: got %d neighbors, want %d", i, len(visitKNN[i]), len(classicKNN[i]))
		}
		for j := range visitKNN[i] {
			gd := visitKNN[i][j].Box.Distance2ToPoint(points[i])
			wd := classicKNN[i][j].Box.Distance2ToPoint(points[i])
			if gd != wd {
				t.Fatalf("point %d rank %d: dist2 %g, want %g", i, j, gd, wd)
			}
		}
	}
}

func TestArenaReuseAcrossBatches(t *testing.T) {
	items, _ := compactConformanceItems(2000, 57)
	frozen := rtree.FreezeItems(items, rtree.Config{})
	r := rand.New(rand.NewSource(58))
	queries := make([]geom.AABB, 32)
	for i := range queries {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		queries[i] = geom.AABBFromCenter(c, geom.V(2, 2, 2))
	}
	arena := &exec.Arena{}
	first, _ := exec.BatchRangeVisitArena(frozen, queries, exec.Options{Workers: 2}, arena)
	wantCounts := make([]int, len(first))
	for i := range first {
		wantCounts[i] = len(first[i])
	}
	// Re-running the identical batch over the same arena must reuse buffers
	// and reproduce the same per-query result counts.
	second, _ := exec.BatchRangeVisitArena(frozen, queries, exec.Options{Workers: 2}, arena)
	for i := range second {
		if len(second[i]) != wantCounts[i] {
			t.Fatalf("query %d: reused-arena batch returned %d results, want %d", i, len(second[i]), wantCounts[i])
		}
	}
}
