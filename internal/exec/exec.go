// Package exec is the parallel batch execution engine of spatialsim. The
// paper's central complaint is that spatial indexes in the simulation
// sciences leave hardware on the table: query batches and index rebuilds run
// serially while every core but one idles. This package closes that gap while
// staying entirely behind the library-wide index contracts, so every index
// family gains parallel execution unchanged:
//
//   - ForTasks / ForTasksCtx / ForChunks are the worker pool the parallel
//     bulk loaders, the join engine and the batches below share;
//   - BatchSearchCount / BatchKNN fan a query batch out across the pool over
//     any index family (the simulation harness's monitoring phase), and
//     BatchRangeVisitArena / BatchKNNInto do the same over the
//     zero-allocation visitor contract with reusable Arena buffers (the
//     serving layer's batch queries); each query owns a disjoint slot of
//     the result slice, so the merge needs no locks;
//   - ParallelBulkLoad rebuilds an index concurrently when the family
//     implements index.ParallelBulkLoader (STR sort-tile slabs for the
//     R-Tree, cell stripes for grids, octants for octrees) and degrades
//     gracefully to the sequential path otherwise;
//   - ParallelJoin tiles a join.Plan's tasks over the pool and gathers the
//     disjoint worker runs in canonical pair order.
//
// Cost accounting survives parallelism: every worker accumulates into a
// private instrument.Counters whose snapshots are aggregated into the
// BatchStats, and the index's own (atomic) counters are snapshotted around
// the batch, so the paper's per-category breakdowns remain exact.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
)

// Options configures the worker pool of a batch operation.
type Options struct {
	// Workers is the number of goroutines used; <= 0 uses GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, cancels the batch cooperatively: workers stop
	// claiming new tasks once the context is done and the batch returns with
	// its stats marked Cancelled. Granularity is one task — an individual
	// query or join task runs to completion once started.
	Ctx context.Context
}

// workerCount resolves Workers against the number of available tasks.
func (o Options) workerCount(tasks int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BatchStats reports the cost accounting of one parallel batch.
type BatchStats struct {
	// Workers is the number of goroutines actually used.
	Workers int
	// Queries is the number of queries executed.
	Queries int
	// Results is the total number of results produced across the batch.
	Results int64
	// PerWorker holds the counters each worker accumulated privately (one
	// entry per worker). Workers observe the engine-level side of the batch —
	// currently the results each one delivered — so PerWorker is the
	// load-balance view; summing it (CounterSnapshot.Add) must equal the
	// batch totals. Traversal-level accounting lives in Index.
	PerWorker []instrument.CounterSnapshot
	// Index is the delta observed on the index's own counters across the
	// batch (zero if the index is not instrumented). This is the paper's cost
	// accounting — node visits, intersection tests, elements touched — and it
	// is exact because index counters are atomic.
	Index instrument.CounterSnapshot
	// Cancelled reports that Options.Ctx expired before every task ran; the
	// unclaimed queries' output slots are left nil.
	Cancelled bool
	// Elapsed is the wall-clock duration of the batch, including Prepare and
	// the merge — what a caller would have measured around the call.
	Elapsed time.Duration
}

// Aggregate returns the sum of the per-worker counter snapshots.
func (s BatchStats) Aggregate() instrument.CounterSnapshot {
	var total instrument.CounterSnapshot
	for _, w := range s.PerWorker {
		total = total.Add(w)
	}
	return total
}

// Prepare forces an index's pending deferred maintenance (lazy rebuilds,
// buffered updates) so that the following Search/KNN calls are read-only and
// safe to issue from many goroutines. Batch operations call it automatically.
func Prepare(ix index.Index) {
	if p, ok := ix.(index.Preparer); ok {
		p.PrepareForRead()
	}
}

// ForTasks runs fn(task) for every task in [0, n) on up to the given number
// of goroutines. Tasks are handed out in small contiguous chunks through an
// atomic cursor, so uneven task costs still balance across workers. It is the
// shared fan-out primitive of the engine and of the per-family parallel bulk
// loaders.
func ForTasks(n, workers int, fn func(worker, task int)) {
	ForTasksCtx(nil, n, workers, fn)
}

// ForTasksCtx is ForTasks with cooperative cancellation: workers check ctx
// between task chunks and stop claiming work once it is done. It reports
// whether every task ran (true for a nil ctx) — decided by the claim
// cursor, so a context that ends after the last chunk was claimed still
// reports a complete run. Tasks already started always run to completion —
// cancellation never tears a task's own writes.
func ForTasksCtx(ctx context.Context, n, workers int, fn func(worker, task int)) bool {
	if n <= 0 {
		return true
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return false
			}
			fn(0, i)
		}
		return true
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	// A claimed chunk always runs, so every task ran once all were claimed.
	return next.Load() >= int64(n)
}

// ForChunks splits [0, n) into one contiguous chunk per worker and runs
// fn(worker, lo, hi) concurrently. Use it when per-element cost is uniform
// and chunk-local state (a private bucket, a chunk sort) is wanted.
func ForChunks(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// BatchSearchCount executes all range queries against the index using a
// worker pool and only counts matches instead of materializing them — the
// parallel equivalent of a sequential count-callback loop, with no
// per-result retention (the simulation harness's monitoring phase). The
// index must be safe for concurrent readers, which every in-memory family in
// this library is after Prepare (deferred maintenance is forced up front).
func BatchSearchCount(ix index.Index, queries []geom.AABB, opts Options) (int64, BatchStats) {
	start := time.Now()
	Prepare(ix)
	w := opts.workerCount(len(queries))
	stats := BatchStats{Workers: w, Queries: len(queries)}

	var before instrument.CounterSnapshot
	counters := ix.Counters()
	if counters != nil {
		before = counters.Snapshot()
	}

	locals := make([]instrument.Counters, w)
	ForTasks(len(queries), w, func(worker, qi int) {
		var n int64
		ix.Search(queries[qi], func(index.Item) bool {
			n++
			return true
		})
		locals[worker].AddResults(n)
	})

	stats.PerWorker = snapshotLocals(locals)
	stats.Results = stats.Aggregate().Results
	if counters != nil {
		stats.Index = counters.Snapshot().Sub(before)
	}
	stats.Elapsed = time.Since(start)
	return stats.Results, stats
}

// BatchKNN executes a k-nearest-neighbor query for every point using a worker
// pool; out[i] holds the (up to) k nearest items of points[i], closest first.
func BatchKNN(ix index.Index, points []geom.Vec3, k int, opts Options) ([][]index.Item, BatchStats) {
	start := time.Now()
	Prepare(ix)
	w := opts.workerCount(len(points))
	out := make([][]index.Item, len(points))
	stats := BatchStats{Workers: w, Queries: len(points)}

	var before instrument.CounterSnapshot
	counters := ix.Counters()
	if counters != nil {
		before = counters.Snapshot()
	}

	locals := make([]instrument.Counters, w)
	ForTasks(len(points), w, func(worker, pi int) {
		out[pi] = ix.KNN(points[pi], k)
		locals[worker].AddResults(int64(len(out[pi])))
	})

	stats.PerWorker = snapshotLocals(locals)
	stats.Results = stats.Aggregate().Results
	if counters != nil {
		stats.Index = counters.Snapshot().Sub(before)
	}
	stats.Elapsed = time.Since(start)
	return out, stats
}

func snapshotLocals(locals []instrument.Counters) []instrument.CounterSnapshot {
	snaps := make([]instrument.CounterSnapshot, len(locals))
	for i := range locals {
		snaps[i] = locals[i].Snapshot()
	}
	return snaps
}
