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
// the pairs in canonical (A, then B) order. Plan tasks are handed out through
// the chunked atomic cursor (uneven cells and subtrees still balance), each
// worker appends into a private pair buffer and charges a private counter.
// Plan tasks never emit a pair twice, so the gather is join.Gather: the
// worker runs are distribution-sorted on A straight into the output — no
// per-worker sort, no merge, no dedup. The aggregated worker accounting is
// folded back into the plan's counters, so sequential and parallel runs
// charge the same totals.
func ParallelJoin(p *join.Plan, opts Options) ([]join.Pair, JoinStats) {
	start := time.Now()
	n := p.Tasks()
	w := opts.workerCount(n)
	stats := JoinStats{Algo: p.Algo(), Workers: w, Tasks: n}
	bufs := make([][]join.Pair, w)
	locals := make([]instrument.Counters, w)
	stats.Cancelled = !ForTasksCtx(opts.Ctx, n, w, func(worker, task int) {
		bufs[worker] = p.RunTask(task, &locals[worker], bufs[worker])
	})
	out := join.Gather(bufs, nil)

	stats.PerWorker = snapshotLocals(locals)
	stats.Pairs = int64(len(out))
	if c := p.Counters(); c != nil {
		agg := stats.Aggregate()
		c.AddComparisons(agg.Comparisons)
		c.AddElemIntersectTests(agg.ElemIntersectTests)
		c.AddTreeIntersectTests(agg.TreeIntersectTests)
	}
	stats.Elapsed = time.Since(start)
	return out, stats
}
