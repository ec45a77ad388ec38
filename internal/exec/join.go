package exec

import (
	"time"

	"spatialsim/internal/instrument"
	"spatialsim/internal/join"
)

// This file runs planner-prepared spatial joins on the worker pool. A
// join.Plan decomposes the join into independent tasks (grid cell runs,
// tree frontier pairs, probe chunks); ParallelJoin tiles those tasks across
// workers with per-worker pair buffers and per-worker counters, then gathers
// the disjoint worker runs with one distribution sort on A (join.Gather) —
// the paper's headline workload on the same engine that drives query
// batches.

// JoinArena holds per-worker pair buffers and the gathered output buffer,
// persisting across ParallelJoinArena calls. Reuse invalidates the pair
// slice returned by the previous call that used this arena.
type JoinArena struct {
	bufs [][]join.Pair
	out  []join.Pair
}

// buffers returns w per-worker buffers, reset to length zero with capacity
// retained.
func (a *JoinArena) buffers(w int) [][]join.Pair {
	for len(a.bufs) < w {
		a.bufs = append(a.bufs, nil)
	}
	for i := 0; i < w; i++ {
		a.bufs[i] = a.bufs[i][:0]
	}
	return a.bufs[:w]
}

// JoinStats reports the execution of one parallel join.
type JoinStats struct {
	// Algo is the algorithm the plan executed.
	Algo join.Algorithm
	// Workers is the number of goroutines actually used.
	Workers int
	// Tasks is the number of independent plan tasks tiled over the pool.
	Tasks int
	// Pairs is the number of result pairs.
	Pairs int64
	// PerWorker holds the counters each worker accumulated privately —
	// the load-balance view of the join's comparison work.
	PerWorker []instrument.CounterSnapshot
	// Cancelled reports that Options.Ctx expired before every plan task ran;
	// the returned pairs are the (correct but incomplete) output of the tasks
	// that did run.
	Cancelled bool
	// Elapsed is the wall-clock duration of the join, including the gather
	// — what a caller would have measured around the call.
	Elapsed time.Duration
}

// Aggregate returns the sum of the per-worker counter snapshots.
func (s JoinStats) Aggregate() instrument.CounterSnapshot {
	var total instrument.CounterSnapshot
	for _, w := range s.PerWorker {
		total = total.Add(w)
	}
	return total
}

// ParallelJoin executes a prepared join plan on the worker pool and returns
// the pairs in canonical (A, then B) order. See ParallelJoinArena
// for the reusable-buffer form.
func ParallelJoin(p *join.Plan, opts Options) ([]join.Pair, JoinStats) {
	return ParallelJoinArena(p, opts, nil)
}

// ParallelJoinArena is ParallelJoin with caller-owned result storage. Plan
// tasks are handed out through the chunked atomic cursor (uneven cells and
// subtrees still balance), each worker appends into its private arena buffer
// and charges a private counter. Plan tasks never emit a pair twice, so the
// gather is join.Gather: the worker runs are distribution-sorted on A straight
// into the arena's output — no per-worker sort, no merge, no dedup.
// The aggregated worker accounting is folded back into the plan's counters,
// so sequential and parallel runs charge the same totals. A nil arena uses a
// private one.
func ParallelJoinArena(p *join.Plan, opts Options, arena *JoinArena) ([]join.Pair, JoinStats) {
	start := time.Now()
	n := p.Tasks()
	w := opts.workerCount(n)
	stats := JoinStats{Algo: p.Algo(), Workers: w, Tasks: n}
	if arena == nil {
		arena = &JoinArena{}
	}
	bufs := arena.buffers(w)
	locals := make([]instrument.Counters, w)
	stats.Cancelled = !ForTasksCtx(opts.Ctx, n, w, func(worker, task int) {
		bufs[worker] = p.RunTask(task, &locals[worker], bufs[worker])
	})
	arena.out = join.Gather(bufs, arena.out)

	stats.PerWorker = snapshotLocals(locals)
	stats.Pairs = int64(len(arena.out))
	if c := p.Counters(); c != nil {
		agg := stats.Aggregate()
		c.AddComparisons(agg.Comparisons)
		c.AddElemIntersectTests(agg.ElemIntersectTests)
		c.AddTreeIntersectTests(agg.TreeIntersectTests)
	}
	stats.Elapsed = time.Since(start)
	return arena.out, stats
}
