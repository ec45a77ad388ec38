package index_test

// Cross-index conformance tests: every index family must give exactly the
// same answers as the linear-scan baseline on randomized workloads of
// inserts, deletes, updates, range queries and kNN queries. This is the
// library-wide property test backing the claim that indexes are freely
// interchangeable behind the index.Index contract.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialsim/internal/core"
	"spatialsim/internal/crtree"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/moving"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

func conformanceUniverse() geom.AABB {
	return geom.NewAABB(geom.V(0, 0, 0), geom.V(50, 50, 50))
}

// candidates returns one fresh instance of every interchangeable index
// implementation.
func candidates() []index.Index {
	u := conformanceUniverse()
	return []index.Index{
		rtree.NewDefault(),
		rtree.New(rtree.Config{MaxEntries: 6}),
		crtree.New(crtree.Config{}),
		grid.New(grid.Config{Universe: u, CellsPerDim: 12}),
		grid.NewMulti(grid.MultiConfig{Universe: u, CoarsestCells: 4, Levels: 4}),
		octree.New(octree.Config{Universe: u, LeafCapacity: 10, MaxDepth: 7}),
		octree.New(octree.Config{Universe: u, LeafCapacity: 10, MaxDepth: 7, Loose: true}),
		core.New(core.Config{Universe: u, CellsPerDim: 12}),
		moving.NewThrowaway(rtree.NewDefault()),
		moving.NewLazy(rtree.NewDefault(), 0.25),
		moving.NewBuffered(rtree.NewDefault(), 64),
	}
}

type workloadOp struct {
	kind int // 0 insert, 1 delete, 2 update, 3 range query, 4 kNN query
	a, b geom.Vec3
}

func randomWorkload(r *rand.Rand, n int) []workloadOp {
	ops := make([]workloadOp, n)
	for i := range ops {
		ops[i] = workloadOp{
			kind: r.Intn(5),
			a:    geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50),
			b:    geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50),
		}
	}
	return ops
}

// runWorkload drives an index and the reference truth map through the same
// operation sequence, checking query answers after every read operation.
func runWorkload(t *testing.T, ix index.Index, ops []workloadOp) {
	t.Helper()
	truth := make(map[int64]geom.AABB)
	ids := make([]int64, 0, len(ops))
	var nextID int64
	for i, op := range ops {
		switch op.kind {
		case 0: // insert
			box := geom.AABBFromCenter(op.a, geom.V(0.3, 0.3, 0.3))
			ix.Insert(nextID, box)
			truth[nextID] = box
			ids = append(ids, nextID)
			nextID++
		case 1: // delete a random live element
			if len(ids) == 0 {
				continue
			}
			id := ids[int(op.b.X*1e6)%len(ids)]
			if _, live := truth[id]; !live {
				continue
			}
			if !ix.Delete(id, truth[id]) {
				t.Fatalf("%s: op %d: Delete(%d) returned false for a live element", ix.Name(), i, id)
			}
			delete(truth, id)
		case 2: // update a random live element
			if len(ids) == 0 {
				continue
			}
			id := ids[int(op.b.Y*1e6)%len(ids)]
			old, live := truth[id]
			if !live {
				continue
			}
			newBox := geom.AABBFromCenter(op.b, geom.V(0.3, 0.3, 0.3))
			ix.Update(id, old, newBox)
			truth[id] = newBox
		case 3: // range query
			q := geom.NewAABB(op.a, op.b)
			got := index.SearchIDs(ix, q)
			want := 0
			for _, box := range truth {
				if q.Intersects(box) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("%s: op %d: range query returned %d results, want %d", ix.Name(), i, len(got), want)
			}
			seen := make(map[int64]bool, len(got))
			for _, id := range got {
				box, live := truth[id]
				if !live || !q.Intersects(box) {
					t.Fatalf("%s: op %d: spurious result %d", ix.Name(), i, id)
				}
				if seen[id] {
					t.Fatalf("%s: op %d: duplicate result %d", ix.Name(), i, id)
				}
				seen[id] = true
			}
		case 4: // kNN query: the nearest reported element must be the true nearest
			if len(truth) == 0 {
				continue
			}
			got := ix.KNN(op.a, 3)
			if len(got) == 0 {
				t.Fatalf("%s: op %d: kNN returned nothing on a non-empty index", ix.Name(), i)
			}
			best := got[0].Box.Distance2ToPoint(op.a)
			for _, box := range truth {
				if box.Distance2ToPoint(op.a) < best-1e-9 {
					t.Fatalf("%s: op %d: kNN missed the nearest element", ix.Name(), i)
				}
			}
		}
		if ix.Len() != len(truth) {
			t.Fatalf("%s: op %d: Len = %d, truth has %d", ix.Name(), i, ix.Len(), len(truth))
		}
	}
}

func TestAllIndexesConformToLinearScanSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ops := randomWorkload(r, 1200)
	for _, ix := range candidates() {
		ix := ix
		t.Run(ix.Name(), func(t *testing.T) {
			runWorkload(t, ix, ops)
		})
	}
}

// TestRangeQueryEquivalenceQuick is a quick-check property: for random item
// sets and random query boxes, every bulk-loadable index returns exactly the
// ids the brute-force filter returns.
func TestRangeQueryEquivalenceQuick(t *testing.T) {
	u := conformanceUniverse()
	property := func(seed int64, rawN uint16, qa, qb [3]float64) bool {
		n := int(rawN)%400 + 10
		r := rand.New(rand.NewSource(seed))
		items := make([]index.Item, n)
		for i := range items {
			c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
			items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(r.Float64(), r.Float64(), r.Float64()))}
		}
		clampCoord := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(math.Abs(v), 50)
		}
		q := geom.NewAABB(
			geom.V(clampCoord(qa[0]), clampCoord(qa[1]), clampCoord(qa[2])),
			geom.V(clampCoord(qb[0]), clampCoord(qb[1]), clampCoord(qb[2])),
		)
		want := make(map[int64]bool)
		for _, it := range items {
			if q.Intersects(it.Box) {
				want[it.ID] = true
			}
		}
		loadables := []index.Index{
			rtree.NewDefault(),
			crtree.New(crtree.Config{}),
			grid.New(grid.Config{Universe: u, CellsPerDim: 10}),
			octree.New(octree.Config{Universe: u, LeafCapacity: 8}),
			core.New(core.Config{Universe: u, CellsPerDim: 10}),
		}
		for _, ix := range loadables {
			ix.(index.BulkLoader).BulkLoad(items)
			got := index.SearchIDs(ix, q)
			if len(got) != len(want) {
				return false
			}
			for _, id := range got {
				if !want[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// loaderFamilies returns one fresh instance of every family at its default
// configuration, the linear scan included: the families whose bulk loads
// the parallel-load tests compare.
func loaderFamilies() []index.Index {
	u := conformanceUniverse()
	return []index.Index{
		rtree.NewDefault(),
		crtree.New(crtree.Config{}),
		grid.New(grid.Config{Universe: u, CellsPerDim: 12}),
		grid.NewMulti(grid.MultiConfig{Universe: u, CoarsestCells: 4, Levels: 4}),
		octree.New(octree.Config{Universe: u, LeafCapacity: 10, MaxDepth: 7}),
		octree.New(octree.Config{Universe: u, LeafCapacity: 10, MaxDepth: 7, Loose: true}),
		core.New(core.Config{Universe: u, CellsPerDim: 12}),
		index.NewLinearScan(),
		moving.NewThrowaway(rtree.NewDefault()),
		moving.NewLazy(rtree.NewDefault(), 0.25),
		moving.NewBuffered(rtree.NewDefault(), 64),
	}
}

// bulkLoad loads items through the family's own loader: ParallelBulkLoad on
// workers goroutines where it has one, BulkLoad where it has only that, an
// insert loop otherwise.
func bulkLoad(ix index.Index, items []index.Item, workers int) {
	switch x := ix.(type) {
	case index.ParallelBulkLoader:
		x.ParallelBulkLoad(items, workers)
	case index.BulkLoader:
		x.BulkLoad(items)
	default:
		for _, it := range items {
			ix.Insert(it.ID, it.Box)
		}
	}
}

func loaderItems(r *rand.Rand, n int) []index.Item {
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		half := geom.V(0.1+r.Float64(), 0.1+r.Float64(), 0.1+r.Float64())
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

// TestParallelBulkLoadMatchesSequential asserts that a parallel load produces
// an index answering exactly like a sequentially loaded one, for every family
// (native parallel loaders and sequential fallbacks alike).
func TestParallelBulkLoadMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	// Above every family's sequential-fallback threshold.
	items := loaderItems(r, 10000)
	queries := make([]geom.AABB, 80)
	for i := range queries {
		a := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		b := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		queries[i] = geom.NewAABB(a, b)
	}
	seq := loaderFamilies()
	par := loaderFamilies()
	for fi := range seq {
		fi := fi
		t.Run(seq[fi].Name(), func(t *testing.T) {
			bulkLoad(seq[fi], items, 1)
			bulkLoad(par[fi], items, 8)
			if sl, pl := seq[fi].Len(), par[fi].Len(); sl != pl {
				t.Fatalf("Len: sequential %d, parallel %d", sl, pl)
			}
			for qi, q := range queries {
				want := idsOf(index.SearchAll(seq[fi], q))
				got := idsOf(index.SearchAll(par[fi], q))
				equalIDSets(t, "parallel load", qi, got, want)
			}
		})
	}
}

// TestParallelBulkLoadReloads asserts a parallel load fully replaces earlier
// contents, exactly like BulkLoad.
func TestParallelBulkLoadReloads(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	first := loaderItems(r, 9000)
	second := loaderItems(r, 8192)
	for _, ix := range []index.Index{
		rtree.NewDefault(),
		grid.New(grid.Config{Universe: conformanceUniverse(), CellsPerDim: 12}),
		octree.New(octree.Config{Universe: conformanceUniverse(), LeafCapacity: 10, MaxDepth: 7}),
		core.New(core.Config{Universe: conformanceUniverse(), CellsPerDim: 12}),
	} {
		loader := ix.(index.ParallelBulkLoader)
		loader.ParallelBulkLoad(first, 8)
		loader.ParallelBulkLoad(second, 8)
		if ix.Len() != len(second) {
			t.Errorf("%s: Len after reload = %d, want %d", ix.Name(), ix.Len(), len(second))
		}
		everything := index.SearchAll(ix, conformanceUniverse().Expand(5))
		if len(everything) != len(second) {
			t.Errorf("%s: full-universe query returned %d, want %d", ix.Name(), len(everything), len(second))
		}
	}
}
