package exec

import (
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
)

// This file is the batch engine's flat-memory fast path: BatchRangeVisitArena
// and BatchKNNInto run against the zero-allocation visitor contract
// (index.RangeVisitor / index.KNNer) that the compact frozen layouts
// implement. Combined with an Arena whose per-worker result buffers survive
// across batches, a steady-state query batch performs no heap allocation at
// all: the index side allocates nothing by contract, and the engine side
// reuses warmed arenas.

// Arena holds per-worker result buffers that persist across batches. Passing
// the same Arena to successive batch calls reuses the buffers, so after
// the first batch the engine allocates only when a batch produces more
// results than any previous one.
//
// Reuse invalidates the result slices returned by earlier batches that used
// this Arena — consume (or copy) them before issuing the next batch.
type Arena struct {
	bufs [][]index.Item
}

// buffers returns w per-worker buffers, each reset to length zero with its
// capacity retained.
func (a *Arena) buffers(w int) [][]index.Item {
	for len(a.bufs) < w {
		a.bufs = append(a.bufs, nil)
	}
	for i := 0; i < w; i++ {
		a.bufs[i] = a.bufs[i][:0]
	}
	return a.bufs[:w]
}

// indexCounters returns the instrumentation counters of ix if it exposes
// them (the visitor interfaces deliberately do not require instrumentation).
func indexCounters(ix interface{}) *instrument.Counters {
	if c, ok := ix.(interface{ Counters() *instrument.Counters }); ok {
		return c.Counters()
	}
	return nil
}

// BatchRangeVisitArena executes all range queries against the visitor using
// a worker pool; out[i] holds the matches of queries[i]. Workers append into
// arena's per-worker buffers (nil uses a private one) and publish each
// query's results as a capped sub-slice, so a warm arena makes the whole
// batch allocation-free on the engine side.
func BatchRangeVisitArena(rv index.RangeVisitor, queries []geom.AABB, opts Options, arena *Arena) ([][]index.Item, BatchStats) {
	start := time.Now()
	if p, ok := rv.(index.Preparer); ok {
		p.PrepareForRead()
	}
	w := opts.workerCount(len(queries))
	out := make([][]index.Item, len(queries))
	stats := BatchStats{Workers: w, Queries: len(queries)}

	var before instrument.CounterSnapshot
	counters := indexCounters(rv)
	if counters != nil {
		before = counters.Snapshot()
	}

	if arena == nil {
		arena = &Arena{}
	}
	bufs := arena.buffers(w)
	locals := make([]instrument.Counters, w)
	stats.Cancelled = !ForTasksCtx(opts.Ctx, len(queries), w, func(worker, qi int) {
		buf := bufs[worker]
		start := len(buf)
		rv.RangeVisit(queries[qi], func(it index.Item) bool {
			buf = append(buf, it)
			return true
		})
		bufs[worker] = buf
		// Full-slice-expression cap: later arena growth can never write into
		// this query's published results.
		out[qi] = buf[start:len(buf):len(buf)]
		locals[worker].AddResults(int64(len(buf) - start))
	})

	stats.PerWorker = snapshotLocals(locals)
	stats.Results = stats.Aggregate().Results
	if counters != nil {
		stats.Index = counters.Snapshot().Sub(before)
	}
	stats.Elapsed = time.Since(start)
	return out, stats
}

// BatchKNNInto executes a k-nearest-neighbor query for every point using a
// worker pool; out[i] holds the (up to) k nearest items of points[i], closest
// first. Results land in arena's per-worker buffers (nil uses a private one)
// and the index's pooled KNN state keeps the per-query traversal heap off the
// allocator, so a warm batch allocates nothing.
func BatchKNNInto(kn index.KNNer, points []geom.Vec3, k int, opts Options, arena *Arena) ([][]index.Item, BatchStats) {
	start := time.Now()
	if p, ok := kn.(index.Preparer); ok {
		p.PrepareForRead()
	}
	w := opts.workerCount(len(points))
	out := make([][]index.Item, len(points))
	stats := BatchStats{Workers: w, Queries: len(points)}

	var before instrument.CounterSnapshot
	counters := indexCounters(kn)
	if counters != nil {
		before = counters.Snapshot()
	}

	if arena == nil {
		arena = &Arena{}
	}
	bufs := arena.buffers(w)
	locals := make([]instrument.Counters, w)
	stats.Cancelled = !ForTasksCtx(opts.Ctx, len(points), w, func(worker, pi int) {
		buf := bufs[worker]
		start := len(buf)
		buf = kn.KNNInto(points[pi], k, buf)
		bufs[worker] = buf
		out[pi] = buf[start:len(buf):len(buf)]
		locals[worker].AddResults(int64(len(buf) - start))
	})

	stats.PerWorker = snapshotLocals(locals)
	stats.Results = stats.Aggregate().Results
	if counters != nil {
		stats.Index = counters.Snapshot().Sub(before)
	}
	stats.Elapsed = time.Since(start)
	return out, stats
}
