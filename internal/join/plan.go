package join

import (
	"context"
	"math"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/par"
)

// This file is the execution core of the served join. A Plan is the prepared
// form of one grid join — the partitioned inputs plus a decomposition into
// independent tasks, each a run of grid cells — so the same machinery drives
// the sequential Run, the worker-pool RunParallel, and the serving layer's
// /join endpoint. Tasks never produce a pair twice (the reference-point
// technique gives every pair one emission cell), so gathering task outputs
// (Gather) is one distribution sort into canonical order: no merge, no
// dedup.

// Algorithm is the name of the join algorithm every Plan runs, as join
// replies and traces report it.
const Algorithm = "grid"

// taskTarget is the rough number of independent tasks a Plan decomposes
// into. More tasks than workers keeps the pool balanced under skew.
const taskTarget = 256

// bounds returns the MBR of the non-empty boxes (a Union fold) and their mean
// extent per axis — what the grid sizes its cells from.
func bounds(items []index.Item) (mbr geom.AABB, extent geom.Vec3) {
	mbr = geom.EmptyAABB()
	n := 0
	for i := range items {
		b := &items[i].Box
		if b.IsEmpty() {
			continue
		}
		mbr.Min = geom.V(min(mbr.Min.X, b.Min.X), min(mbr.Min.Y, b.Min.Y), min(mbr.Min.Z, b.Min.Z))
		mbr.Max = geom.V(max(mbr.Max.X, b.Max.X), max(mbr.Max.Y, b.Max.Y), max(mbr.Max.Z, b.Max.Z))
		extent = extent.Add(b.Size())
		n++
	}
	if n > 0 {
		extent = extent.Scale(1 / float64(n))
	}
	return mbr, extent
}

// Planner prepares grid join Plans. The zero value sizes the grid from the
// data and uses GOMAXPROCS goroutines to partition.
type Planner struct {
	// Grid configures the grid's resolution.
	Grid GridJoinConfig
	// Workers is the goroutine budget of plan preparation — the grid's
	// chunked cell assignment (<= 0 uses GOMAXPROCS). Give it the budget
	// the plan's RunParallel gets, so the whole join keeps to one budget.
	Workers int
}

// Plan is one prepared grid join: the partitioned inputs and a
// decomposition into Tasks() independent runs of cells. A Plan is read-only
// after construction — RunTask may be called concurrently for distinct (or
// even identical) tasks, which is how RunParallel tiles a plan across its
// worker pool. Close releases pooled partitioning buffers; using the plan
// after Close is invalid.
type Plan struct {
	self  bool
	opts  Options
	as    []index.Item
	bs    []index.Item
	part  *partitioner
	tasks []gridTask
}

// Cells returns the number of grid cells the plan partitions into (0 for a
// degenerate plan).
func (p *Plan) Cells() int {
	if p.part == nil {
		return 0
	}
	return p.part.cells()
}

// Plan prepares a binary join.
func (pl Planner) Plan(as, bs []index.Item, opts Options) *Plan {
	return pl.newPlan(as, bs, false, opts)
}

// PlanSelf prepares a self-join.
func (pl Planner) PlanSelf(items []index.Item, opts Options) *Plan {
	return pl.newPlan(items, items, true, opts)
}

func (pl Planner) newPlan(as, bs []index.Item, self bool, opts Options) *Plan {
	p := &Plan{self: self, opts: opts, as: as, bs: bs}
	if len(as) == 0 || len(bs) == 0 || (self && len(as) < 2) {
		// Degenerate plan: zero tasks, empty result.
		return p
	}
	p.prepare(pl.Grid, pl.Workers)
	return p
}

// Tasks returns the number of independent tasks the plan decomposes into.
func (p *Plan) Tasks() int { return len(p.tasks) }

// Run executes every task sequentially and returns the pairs in canonical
// (A, then B) order.
func (p *Plan) Run() []Pair {
	var raw []Pair
	for t, n := 0, p.Tasks(); t < n; t++ {
		raw = p.RunTask(t, nil, raw)
	}
	return Gather([][]Pair{raw}, nil)
}

// RunStats reports the execution of one RunParallel call.
type RunStats struct {
	// Workers is the number of goroutines the task run used. Plan
	// preparation keeps to its own budget, Planner.Workers.
	Workers int
	// Tasks is the number of independent plan tasks tiled over the pool.
	Tasks int
	// Pairs is the exact number of result pairs the tasks that ran found:
	// every pair, also those a limit kept out of the returned list.
	Pairs int64
	// PerWorker holds the counters each worker accumulated privately —
	// the load-balance view of the join's comparison work.
	PerWorker []instrument.CounterSnapshot
	// Cancelled reports that ctx ended before every plan task ran; the
	// returned pairs are the (correct but incomplete) output of the tasks
	// that did run.
	Cancelled bool
}

// Aggregate returns the sum of the per-worker counter snapshots.
func (s RunStats) Aggregate() instrument.CounterSnapshot {
	var total instrument.CounterSnapshot
	for _, w := range s.PerWorker {
		total = total.Add(w)
	}
	return total
}

// RunParallel executes the plan's tasks on up to workers goroutines (<= 0
// uses GOMAXPROCS, bounded by the task count) and returns the first limit
// pairs in canonical (A, then B) order — every pair when limit <= 0. Tasks
// are handed out through par's chunked atomic cursor (uneven cells still
// balance), and each worker charges a private counter.
//
// Each worker appends every task's pairs to its private keep set
// (firstPairs), which counts them and, under a limit, drops those above its
// current limit-th smallest — so the pairs nobody asked for are counted but
// never gathered or sorted. Tasks never emit a pair twice, so the gather is
// Gather: the worker runs are distribution-sorted on A straight into the
// output — no per-worker sort, no merge, no dedup. Stats.Pairs is the exact
// count with or without a limit.
//
// The aggregated worker accounting is folded back into the plan's
// counters, so Run and RunParallel charge the same totals. Once ctx ends,
// workers stop claiming tasks and the stats are marked Cancelled.
func (p *Plan) RunParallel(ctx context.Context, workers, limit int) ([]Pair, RunStats) {
	n := p.Tasks()
	w := par.Workers(workers, n)
	stats := RunStats{Workers: w, Tasks: n}
	locals := make([]instrument.Counters, w)
	firsts := make([]firstPairs, w)
	for i := range firsts {
		firsts[i] = newFirstPairs(limit)
	}
	stats.Cancelled = !par.ForTasksCtx(ctx, n, w, func(worker, task int) {
		f := &firsts[worker]
		from := len(f.kept)
		f.kept = p.RunTask(task, &locals[worker], f.kept)
		f.admit(from)
	})
	runs := make([][]Pair, w)
	for i := range firsts {
		runs[i] = firsts[i].kept
		stats.Pairs += firsts[i].count
	}
	out := Gather(runs, nil)
	if limit > 0 {
		out = out[:min(len(out), limit)]
	}

	stats.PerWorker = make([]instrument.CounterSnapshot, w)
	for i := range locals {
		stats.PerWorker[i] = locals[i].Snapshot()
	}
	if c := p.opts.Counters; c != nil {
		agg := stats.Aggregate()
		c.AddComparisons(agg.Comparisons)
		c.AddElemIntersectTests(agg.ElemIntersectTests)
		c.AddTreeIntersectTests(agg.TreeIntersectTests)
	}
	return out, stats
}

// firstPairs is one worker's keep set: it counts every pair admitted to it
// and, under a limit, keeps a superset of the limit smallest in canonical
// order. Once a task leaves kept at twice the limit or more (plus slack, so
// a tiny limit does not trim after every task), a trim gathers it into
// spare, keeps the first limit and lowers bound to the largest of them; no
// later pair above bound is kept. A trim is one linear Gather, and it
// drops at least as many pairs as it keeps. Without a limit nothing is
// trimmed or filtered: kept holds every pair.
type firstPairs struct {
	limit       int
	trimAt      int // len(kept) that triggers a trim; 0 without a limit
	count       int64
	kept, spare []Pair
	bound       Pair
}

// firstPairsSlack is the room kept has beyond twice the limit.
const firstPairsSlack = 64

func newFirstPairs(limit int) firstPairs {
	f := firstPairs{limit: limit, bound: Pair{A: math.MaxInt64, B: math.MaxInt64}}
	if limit > 0 {
		f.trimAt = math.MaxInt
		if limit <= (math.MaxInt-firstPairsSlack)/2 {
			f.trimAt = 2*limit + firstPairsSlack
		}
	}
	return f
}

// admit counts the pairs appended to kept since from and, under a limit,
// compacts them in place against bound, then trims if kept has filled.
func (f *firstPairs) admit(from int) {
	f.count += int64(len(f.kept) - from)
	if f.trimAt == 0 {
		return
	}
	bound, n := f.bound, from
	for _, q := range f.kept[from:] {
		if q.A < bound.A || (q.A == bound.A && q.B <= bound.B) {
			f.kept[n] = q
			n++
		}
	}
	f.kept = f.kept[:n]
	if n >= f.trimAt {
		f.spare = Gather([][]Pair{f.kept}, f.spare)
		f.kept, f.spare = f.spare[:f.limit], f.kept
		f.bound = f.kept[f.limit-1]
	}
}

// Close returns pooled partitioning buffers for reuse by later plans. The
// plan must not be used afterwards.
func (p *Plan) Close() {
	if p.part != nil {
		putPartitioner(p.part)
		p.part = nil
		p.tasks = nil
	}
}

// prepare partitions both inputs into the uniform grid using the pooled
// partitioner; tasks are runs of cells with candidate pairs (occupied on both
// sides, or holding at least two elements for self-joins). The assignment
// runs on up to workers goroutines.
func (p *Plan) prepare(cfg GridJoinConfig, workers int) {
	mbr, ext := bounds(p.as)
	n := len(p.as)
	if !p.self {
		mbrB, extB := bounds(p.bs)
		na, nb := float64(len(p.as)), float64(len(p.bs))
		mbr = mbr.Union(mbrB)
		ext = ext.Scale(na).Add(extB.Scale(nb)).Scale(1 / (na + nb))
		n += len(p.bs)
	}
	u := mbr.Expand(p.opts.Eps + 1e-9)
	var cells [3]int
	if c := cfg.CellsPerDim; c > 0 {
		c = min(c, maxCellsPerAxis)
		cells = [3]int{c, c, c}
	} else {
		cells = gridCells(u, ext, p.opts.Eps, n)
	}
	p.part = getPartitioner(u, cells, p.opts.Eps)
	p.part.assign(p.as, &p.part.a, workers)
	if !p.self {
		p.part.assign(p.bs, &p.part.b, workers)
	}
	p.tasks = p.part.split(p.self, taskTarget)
}

// RunTask executes one task, appending its pairs to buf. Distinct tasks emit
// disjoint pair sets (no task-level deduplication is ever needed); within a
// task, pairs are emitted at most once. counters, if non-nil, receives the
// task's comparison accounting instead of the plan's own counters — the hook
// RunParallel uses to keep per-worker accounting contention-free.
//
// A task compares the elements sharing each of its grid cells. The
// reference point technique makes every pair's emission site unique: a
// candidate pair is examined only in the cell containing the corner point
// max(aMin, bMin) shifted by the assignment expansion — a point that lies in
// both elements' expanded boxes whenever the pair can match, and in exactly
// one cell. That cell is the componentwise max of the two elements' lowest
// cells (the cell mapping is monotone), tested on the integer masks assign
// recorded. Pairs found through border replication in other cells are
// skipped before any comparison is charged, so the grid join emits no
// duplicates at all. Comparisons are counted locally and charged once.
//
// Without a refinement predicate, and when assign found every box valid,
// the box test is gridGap2 <= Eps² — no branch per axis; otherwise it is
// Options.within.
func (p *Plan) RunTask(task int, counters *instrument.Counters, out []Pair) []Pair {
	opts := p.opts
	if counters != nil {
		opts.Counters = counters
	}
	t := p.tasks[task]
	a, b := &p.part.a, &p.part.b
	fast := opts.Refine == nil && a.valid && (p.self || b.valid)
	eps2 := opts.Eps * opts.Eps
	var comparisons int64
	for c := t.lo; c < t.hi; c++ {
		aIdxs, aMasks := a.idxs[a.start[c]:a.start[c+1]], a.masks[a.start[c]:a.start[c+1]]
		if p.self {
			for x, i := range aIdxs {
				ia, ma := &p.as[i], aMasks[x]
				for y := x + 1; y < len(aIdxs); y++ {
					if ma|aMasks[y] != refAll {
						continue
					}
					ib := &p.as[aIdxs[y]]
					if ia.ID == ib.ID {
						continue
					}
					comparisons++
					if fast {
						if gridGap2(&ia.Box, &ib.Box) > eps2 {
							continue
						}
					} else if !opts.within(ia, ib) {
						continue
					}
					out = append(out, orderPair(ia.ID, ib.ID))
				}
			}
			continue
		}
		bIdxs, bMasks := b.idxs[b.start[c]:b.start[c+1]], b.masks[b.start[c]:b.start[c+1]]
		for x, i := range aIdxs {
			ia, ma := &p.as[i], aMasks[x]
			for y, j := range bIdxs {
				if ma|bMasks[y] != refAll {
					continue
				}
				comparisons++
				ib := &p.bs[j]
				if fast {
					if gridGap2(&ia.Box, &ib.Box) > eps2 {
						continue
					}
				} else if !opts.within(ia, ib) {
					continue
				}
				out = append(out, Pair{A: ia.ID, B: ib.ID})
			}
		}
	}
	if opts.Counters != nil {
		opts.Counters.AddComparisons(comparisons)
	}
	return out
}

// gridGap2 is the squared distance between two boxes with no branch per
// axis: the gap max(0, bMin−aMax, aMin−bMax) squared, summed in x, y, z
// order. For valid (finite, ordered) boxes at most one of the two
// differences is positive and neither is NaN, so each term equals gap2's
// and gridGap2(a, b) > Eps² decides exactly as Options.within does — for any
// Eps, NaN and ±Inf included. The conversions round each square before the
// sum, as gap2 does, so no platform fuses them.
func gridGap2(a, b *geom.AABB) float64 {
	dx := max(0, b.Min.X-a.Max.X, a.Min.X-b.Max.X)
	dy := max(0, b.Min.Y-a.Max.Y, a.Min.Y-b.Max.Y)
	dz := max(0, b.Min.Z-a.Max.Z, a.Min.Z-b.Max.Z)
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}
