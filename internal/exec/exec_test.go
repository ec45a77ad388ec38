package exec_test

// Conformance tests for the parallel execution engine: parallel batch
// queries and parallel bulk loads must be answer-for-answer identical to
// their sequential counterparts across every interchangeable index family,
// and the striped ConcurrentIndex must survive a mixed read/write stress run
// under the race detector.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsim/internal/core"
	"spatialsim/internal/crtree"
	"spatialsim/internal/exec"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/moving"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

func testUniverse() geom.AABB {
	return geom.NewAABB(geom.V(0, 0, 0), geom.V(50, 50, 50))
}

// families returns one fresh instance of every index family the engine must
// drive identically to sequential execution.
func families() []index.Index {
	u := testUniverse()
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
		exec.NewConcurrent(7, func() index.Index { return rtree.NewDefault() }),
	}
}

func randomItems(r *rand.Rand, n int) []index.Item {
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		half := geom.V(0.1+r.Float64(), 0.1+r.Float64(), 0.1+r.Float64())
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

func randomQueries(r *rand.Rand, n int) []geom.AABB {
	queries := make([]geom.AABB, n)
	for i := range queries {
		a := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		b := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
		queries[i] = geom.NewAABB(a, b)
	}
	return queries
}

func sortedIDs(items []index.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int64) bool {
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

func TestBatchSearchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	items := randomItems(r, 3000)
	queries := randomQueries(r, 150)
	for _, ix := range families() {
		ix := ix
		t.Run(ix.Name(), func(t *testing.T) {
			exec.ParallelBulkLoad(ix, items, exec.Options{Workers: 1})
			want := make([][]int64, len(queries))
			for i, q := range queries {
				want[i] = sortedIDs(index.SearchAll(ix, q))
			}
			got, stats := exec.BatchSearch(ix, queries, exec.Options{Workers: 8})
			if stats.Queries != len(queries) {
				t.Fatalf("stats.Queries = %d, want %d", stats.Queries, len(queries))
			}
			var total int64
			for i := range queries {
				ids := sortedIDs(got[i])
				if !equalIDs(ids, want[i]) {
					t.Fatalf("query %d: got %d results, want %d", i, len(ids), len(want[i]))
				}
				total += int64(len(ids))
			}
			if stats.Results != total {
				t.Errorf("stats.Results = %d, want %d", stats.Results, total)
			}
			if agg := stats.Aggregate().Results; agg != total {
				t.Errorf("aggregated per-worker results = %d, want %d", agg, total)
			}
			count, countStats := exec.BatchSearchCount(ix, queries, exec.Options{Workers: 8})
			if count != total {
				t.Errorf("BatchSearchCount = %d, want %d", count, total)
			}
			if countStats.Aggregate().Results != total {
				t.Errorf("BatchSearchCount per-worker aggregate = %d, want %d", countStats.Aggregate().Results, total)
			}
		})
	}
}

func TestBatchKNNMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	items := randomItems(r, 2000)
	points := make([]geom.Vec3, 60)
	for i := range points {
		points[i] = geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50)
	}
	const k = 5
	for _, ix := range families() {
		ix := ix
		t.Run(ix.Name(), func(t *testing.T) {
			exec.ParallelBulkLoad(ix, items, exec.Options{Workers: 1})
			exec.Prepare(ix)
			want := make([][]index.Item, len(points))
			for i, p := range points {
				want[i] = ix.KNN(p, k)
			}
			got, _ := exec.BatchKNN(ix, points, k, exec.Options{Workers: 8})
			for i := range points {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("point %d: got %d neighbors, want %d", i, len(got[i]), len(want[i]))
				}
				// Result sets may tie-break differently between runs only if
				// the index is nondeterministic — ours are not, so compare
				// distances, which are always well-defined.
				for j := range got[i] {
					gd := got[i][j].Box.Distance2ToPoint(points[i])
					wd := want[i][j].Box.Distance2ToPoint(points[i])
					if gd != wd {
						t.Fatalf("point %d rank %d: distance2 %v, want %v", i, j, gd, wd)
					}
				}
			}
		})
	}
}

// TestParallelBulkLoadMatchesSequential asserts that a parallel load produces
// an index answering exactly like a sequentially loaded one, for every family
// (native parallel loaders and sequential fallbacks alike).
func TestParallelBulkLoadMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	// Above every family's sequential-fallback threshold.
	items := randomItems(r, 10000)
	queries := randomQueries(r, 80)
	seq := families()
	par := families()
	for fi := range seq {
		fi := fi
		t.Run(seq[fi].Name(), func(t *testing.T) {
			exec.ParallelBulkLoad(seq[fi], items, exec.Options{Workers: 1})
			exec.ParallelBulkLoad(par[fi], items, exec.Options{Workers: 8})
			if sl, pl := seq[fi].Len(), par[fi].Len(); sl != pl {
				t.Fatalf("Len: sequential %d, parallel %d", sl, pl)
			}
			for qi, q := range queries {
				want := sortedIDs(index.SearchAll(seq[fi], q))
				got := sortedIDs(index.SearchAll(par[fi], q))
				if !equalIDs(got, want) {
					t.Fatalf("query %d: parallel load returned %d results, sequential %d", qi, len(got), len(want))
				}
			}
		})
	}
}

// TestParallelBulkLoadReloads asserts a parallel load fully replaces earlier
// contents, exactly like BulkLoad.
func TestParallelBulkLoadReloads(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	first := randomItems(r, 9000)
	second := randomItems(r, 8192)
	for _, ix := range []index.Index{
		rtree.NewDefault(),
		grid.New(grid.Config{Universe: testUniverse(), CellsPerDim: 12}),
		octree.New(octree.Config{Universe: testUniverse(), LeafCapacity: 10, MaxDepth: 7}),
		core.New(core.Config{Universe: testUniverse(), CellsPerDim: 12}),
		exec.NewConcurrent(5, func() index.Index { return rtree.NewDefault() }),
		// Stripes without a native BulkLoad must still be replaced on reload.
		exec.NewConcurrent(5, func() index.Index { return moving.NewLazy(rtree.NewDefault(), 0.25) }),
	} {
		loader := ix.(index.ParallelBulkLoader)
		loader.ParallelBulkLoad(first, 8)
		loader.ParallelBulkLoad(second, 8)
		if ix.Len() != len(second) {
			t.Errorf("%s: Len after reload = %d, want %d", ix.Name(), ix.Len(), len(second))
		}
		everything := index.SearchAll(ix, testUniverse().Expand(5))
		if len(everything) != len(second) {
			t.Errorf("%s: full-universe query returned %d, want %d", ix.Name(), len(everything), len(second))
		}
	}
}

func TestBatchSearchEarlyStopViaConcurrent(t *testing.T) {
	// ConcurrentIndex.Search must honor a false return from the callback.
	c := exec.NewConcurrent(4, func() index.Index { return rtree.NewDefault() })
	r := rand.New(rand.NewSource(11))
	exec.ParallelBulkLoad(c, randomItems(r, 500), exec.Options{Workers: 4})
	seen := 0
	c.Search(testUniverse(), func(index.Item) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early-stopped search visited %d results, want 3", seen)
	}
}

func TestForTasksCoversAllTasksOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		for _, n := range []int{0, 1, 7, 1000} {
			var mu sync.Mutex
			seen := make(map[int]int)
			exec.ForTasks(n, workers, func(_, task int) {
				mu.Lock()
				seen[task]++
				mu.Unlock()
			})
			if len(seen) != n {
				t.Fatalf("workers=%d n=%d: %d distinct tasks run", workers, n, len(seen))
			}
			for task, count := range seen {
				if count != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, task, count)
				}
			}
		}
	}
}

// TestForTasksCtxCancelAfterLastClaim: a context that ends inside the last
// task, when every task is already claimed, leaves a complete run — not
// one reported cancelled because a worker looped after the end. A context
// that ended before the run claims nothing.
func TestForTasksCtxCancelAfterLastClaim(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 200; run++ {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			complete := exec.ForTasksCtx(ctx, n, workers, func(_, task int) {
				ran.Add(1)
				if task == n-1 {
					cancel()
				}
			})
			cancel()
			if !complete || ran.Load() != n {
				t.Fatalf("workers=%d run %d: complete=%v after %d of %d tasks", workers, run, complete, ran.Load(), n)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if exec.ForTasksCtx(ctx, n, workers, func(int, int) { t.Error("a task ran after the context ended") }) {
			t.Fatalf("workers=%d: a run under an ended context reported complete", workers)
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 10, 999} {
			covered := make([]int, n)
			var mu sync.Mutex
			exec.ForChunks(n, workers, func(_, lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				mu.Unlock()
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: element %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestConcurrentIndexStress hammers a ConcurrentIndex with mixed writers and
// readers; run with -race this is the engine's data-race gate. It finishes by
// checking the survivors against a mutex-guarded truth map.
func TestConcurrentIndexStress(t *testing.T) {
	u := testUniverse()
	c := exec.NewConcurrent(8, func() index.Index {
		return grid.New(grid.Config{Universe: u, CellsPerDim: 8})
	})
	var truthMu sync.Mutex
	truth := make(map[int64]geom.AABB)

	const goroutines = 8
	const opsPerGoroutine = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for op := 0; op < opsPerGoroutine; op++ {
				id := int64(g*opsPerGoroutine + op)
				box := geom.AABBFromCenter(
					geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50),
					geom.V(0.5, 0.5, 0.5),
				)
				switch op % 4 {
				case 0, 1:
					c.Insert(id, box)
					truthMu.Lock()
					truth[id] = box
					truthMu.Unlock()
				case 2:
					q := geom.AABBFromCenter(
						geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50),
						geom.V(3, 3, 3),
					)
					c.Search(q, func(index.Item) bool { return true })
				case 3:
					c.KNN(geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50), 4)
				}
			}
		}(g)
	}
	wg.Wait()

	if c.Len() != len(truth) {
		t.Fatalf("Len = %d, truth has %d", c.Len(), len(truth))
	}
	got := sortedIDs(index.SearchAll(c, u.Expand(5)))
	if len(got) != len(truth) {
		t.Fatalf("full query returned %d, truth has %d", len(got), len(truth))
	}
	for _, id := range got {
		if _, ok := truth[id]; !ok {
			t.Fatalf("spurious id %d", id)
		}
	}
}

// TestBatchStatsIndexDelta checks the paper's cost accounting survives a
// parallel batch: the index-counter delta reported by BatchStats must equal
// the per-worker aggregation for categories both sides observe.
func TestBatchStatsIndexDelta(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ix := rtree.NewDefault()
	ix.BulkLoad(randomItems(r, 5000))
	queries := randomQueries(r, 100)
	_, stats := exec.BatchSearch(ix, queries, exec.Options{Workers: 8})
	if stats.Index.Results != stats.Results {
		t.Errorf("index counter delta reports %d results, engine counted %d", stats.Index.Results, stats.Results)
	}
	if stats.Index.NodeVisits == 0 {
		t.Errorf("index counter delta lost traversal accounting")
	}
	if len(stats.PerWorker) != stats.Workers {
		t.Errorf("PerWorker has %d entries, want %d", len(stats.PerWorker), stats.Workers)
	}
}
