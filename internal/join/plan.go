package join

import (
	"context"
	"fmt"
	"math"
	"sort"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/par"
)

// This file is the planner-driven execution core of the join subsystem. The
// paper compares five in-memory join algorithms and observes that which one
// wins depends on the inputs: cardinality, density and how much the two sets
// overlap. The Planner encodes those decision criteria; a Plan is the
// prepared form of one join — the shared partitioning/replication state plus
// a decomposition into independent tasks — so the same machinery drives the
// sequential Run, the worker-pool RunParallel, and the serving layer's
// /join endpoint. Tasks never produce a pair twice (the grid uses the
// reference-point technique, the tree joins filter at the emission site), so
// gathering task outputs (Gather) is one distribution sort into canonical
// order: no merge, no dedup.

// Algorithm identifies one of the five join strategies the paper surveys.
type Algorithm int

const (
	// AlgoNestedLoop is the quadratic baseline.
	AlgoNestedLoop Algorithm = iota
	// AlgoPlaneSweep sorts both inputs by Min.X and compares only elements
	// whose X extents (expanded by Eps) overlap.
	AlgoPlaneSweep
	// AlgoGrid is the PBSM-style uniform-grid partition join.
	AlgoGrid
	// AlgoRTree is the synchronized R-Tree traversal join.
	AlgoRTree
	// AlgoTOUCH is the hierarchical data-oriented partitioning join.
	AlgoTOUCH
)

// String returns the experiment-table name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoNestedLoop:
		return "nested-loop"
	case AlgoPlaneSweep:
		return "sweep"
	case AlgoGrid:
		return "grid"
	case AlgoRTree:
		return "rtree-sync"
	case AlgoTOUCH:
		return "touch"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm resolves an algorithm name (as printed by String, plus a few
// aliases) for CLI flags and the HTTP join endpoint.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "nested-loop", "nested", "nl":
		return AlgoNestedLoop, nil
	case "sweep", "plane-sweep":
		return AlgoPlaneSweep, nil
	case "grid", "pbsm":
		return AlgoGrid, nil
	case "rtree-sync", "rtree":
		return AlgoRTree, nil
	case "touch":
		return AlgoTOUCH, nil
	}
	return 0, fmt.Errorf("unknown join algorithm %q (nested-loop|sweep|grid|rtree-sync|touch)", s)
}

// Stats are the input statistics the planner decides on — the paper's own
// criteria: cardinality, density, and how much the inputs' MBRs overlap.
type Stats struct {
	// CardA and CardB are the input cardinalities (equal for self-joins).
	CardA, CardB int
	// MBRA and MBRB are the minimum bounding rectangles of the inputs.
	MBRA, MBRB geom.AABB
	// CoverageA and CoverageB are density proxies: the summed element box
	// volume divided by the MBR volume. Values well above 1 mean heavily
	// overlapping elements, where uniform-grid replication degenerates.
	CoverageA, CoverageB float64
	// ExtentA and ExtentB are the mean element box extents per axis — what
	// the grid join sizes its cells from.
	ExtentA, ExtentB geom.Vec3
	// OverlapRatio is vol(MBRA ∩ MBRB) / min(vol(MBRA), vol(MBRB)) — how much
	// of the smaller input's extent the other input can even reach. 1 for
	// self-joins.
	OverlapRatio float64
	// Elongation is the ratio of the longest to the second-longest axis of
	// the combined MBR. Effectively one-dimensional data favors the sweep.
	Elongation float64
}

// statsOf computes the statistics of one input set in one pass: the MBR (as
// a Union fold), the coverage and the mean extent of the non-empty boxes.
func statsOf(items []index.Item) (mbr geom.AABB, coverage float64, extent geom.Vec3) {
	mbr = geom.EmptyAABB()
	var volSum float64
	n := 0
	for i := range items {
		b := &items[i].Box
		if b.IsEmpty() {
			continue
		}
		mbr.Min = geom.V(min(mbr.Min.X, b.Min.X), min(mbr.Min.Y, b.Min.Y), min(mbr.Min.Z, b.Min.Z))
		mbr.Max = geom.V(max(mbr.Max.X, b.Max.X), max(mbr.Max.Y, b.Max.Y), max(mbr.Max.Z, b.Max.Z))
		s := b.Size()
		extent = extent.Add(s)
		volSum += s.X * s.Y * s.Z
		n++
	}
	if v := mbr.Volume(); v > 0 {
		coverage = volSum / v
	}
	if n > 0 {
		extent = extent.Scale(1 / float64(n))
	}
	return mbr, coverage, extent
}

// ComputeStats derives the planner inputs for a binary join.
func ComputeStats(as, bs []index.Item) Stats {
	st := Stats{CardA: len(as), CardB: len(bs)}
	st.MBRA, st.CoverageA, st.ExtentA = statsOf(as)
	st.MBRB, st.CoverageB, st.ExtentB = statsOf(bs)
	minVol := math.Min(st.MBRA.Volume(), st.MBRB.Volume())
	if minVol > 0 {
		st.OverlapRatio = st.MBRA.OverlapVolume(st.MBRB) / minVol
	} else if st.MBRA.Intersects(st.MBRB) {
		st.OverlapRatio = 1
	}
	st.Elongation = elongation(st.MBRA.Union(st.MBRB))
	return st
}

// ComputeSelfStats derives the planner inputs for a self-join.
func ComputeSelfStats(items []index.Item) Stats {
	st := Stats{CardA: len(items), CardB: len(items)}
	st.MBRA, st.CoverageA, st.ExtentA = statsOf(items)
	st.MBRB, st.CoverageB, st.ExtentB = st.MBRA, st.CoverageA, st.ExtentA
	st.OverlapRatio = 1
	st.Elongation = elongation(st.MBRA)
	return st
}

// elongation returns longest-axis / second-longest-axis of the box.
func elongation(b geom.AABB) float64 {
	if b.IsEmpty() {
		return 1
	}
	s := b.Size()
	d := []float64{s.X, s.Y, s.Z}
	sort.Float64s(d)
	if d[1] <= 0 {
		return math.Inf(1)
	}
	return d[2] / d[1]
}

// Planner picks a join algorithm from input statistics and prepares Plans.
// The zero value uses the default thresholds; fields override them.
type Planner struct {
	// NestedLoopMax: when CardA*CardB is at most this, the quadratic baseline
	// beats any partitioning overhead.
	NestedLoopMax float64
	// MinOverlap: below this MBR overlap ratio the synchronized R-Tree
	// traversal wins — disjoint regions prune whole subtree pairs at the top.
	MinOverlap float64
	// SkewRatio: at this cardinality skew and above, TOUCH wins — it builds
	// the hierarchy over the small side and streams the large side through it.
	SkewRatio float64
	// ElongationRatio: at this MBR elongation and above the inputs are
	// effectively one-dimensional and the plane sweep wins.
	ElongationRatio float64
	// DenseCoverage: at this element-density coverage and above, uniform-grid
	// border replication degenerates and TOUCH's data-oriented partitioning
	// wins.
	DenseCoverage float64
	// Grid configures the grid join when it is picked (or forced).
	Grid GridJoinConfig
	// TaskTarget is the rough number of independent tasks a Plan decomposes
	// into (<= 0 uses 256). More tasks than workers keeps the pool balanced
	// under skew.
	TaskTarget int
}

func (pl Planner) withDefaults() Planner {
	if pl.NestedLoopMax <= 0 {
		pl.NestedLoopMax = 4096
	}
	if pl.MinOverlap <= 0 {
		pl.MinOverlap = 0.05
	}
	if pl.SkewRatio <= 0 {
		pl.SkewRatio = 8
	}
	if pl.ElongationRatio <= 0 {
		pl.ElongationRatio = 12
	}
	if pl.DenseCoverage <= 0 {
		pl.DenseCoverage = 2
	}
	if pl.TaskTarget <= 0 {
		pl.TaskTarget = 256
	}
	return pl
}

// Pick chooses the algorithm for the given input statistics. The checks run
// from the most to the least specific regime; uniform overlapping inputs fall
// through to the grid, the paper's PBSM default.
func (pl Planner) Pick(st Stats) Algorithm {
	pl = pl.withDefaults()
	if float64(st.CardA)*float64(st.CardB) <= pl.NestedLoopMax {
		return AlgoNestedLoop
	}
	if st.OverlapRatio < pl.MinOverlap {
		return AlgoRTree
	}
	minC, maxC := st.CardA, st.CardB
	if minC > maxC {
		minC, maxC = maxC, minC
	}
	if minC > 0 && float64(maxC)/float64(minC) >= pl.SkewRatio {
		return AlgoTOUCH
	}
	if st.Elongation >= pl.ElongationRatio {
		return AlgoPlaneSweep
	}
	if math.Max(st.CoverageA, st.CoverageB) >= pl.DenseCoverage {
		return AlgoTOUCH
	}
	return AlgoGrid
}

// Plan is one prepared join: the chosen algorithm, the shared partitioning
// state, and a decomposition into Tasks() independent units of work. A Plan
// is read-only after construction — RunTask may be called concurrently for
// distinct (or even identical) tasks, which is how RunParallel tiles a
// plan across its worker pool. Close releases pooled partitioning buffers;
// using the plan after Close is invalid.
type Plan struct {
	algo  Algorithm
	stats Stats
	self  bool
	opts  Options
	as    []index.Item
	bs    []index.Item

	// grid state
	part      *partitioner
	gridTasks []gridTask

	// tree state (rtree-sync and TOUCH)
	ha, hb   *flatHierarchy
	frontier [][2]int32

	// chunked-side decompositions (nested loop, sweep, TOUCH probes)
	sortedA, sortedB []index.Item
	chunkA, chunkB   int
	aTasks, bTasks   int

	// TOUCH orientation: the hierarchy is built over the smaller input, so a
	// skewed binary join may probe with as while building over bs. touchProbe
	// is the probe side; touchSwap records that build/probe were exchanged
	// (pair emission restores the (as, bs) orientation).
	touchProbe []index.Item
	touchSwap  bool
}

// Algo returns the algorithm the plan executes.
func (p *Plan) Algo() Algorithm { return p.algo }

// Statistics returns the input statistics the planner decided on.
func (p *Plan) Statistics() Stats { return p.stats }

// Self reports whether the plan is a self-join.
func (p *Plan) Self() bool { return p.self }

// Counters returns the instrumentation counters the plan charges by default
// (nil when the caller supplied none).
func (p *Plan) Counters() *instrument.Counters { return p.opts.Counters }

// Eps returns the distance threshold of the join.
func (p *Plan) Eps() float64 { return p.opts.Eps }

// Cells returns the number of grid cells a grid plan partitions into (0 for
// the other algorithms and for degenerate plans).
func (p *Plan) Cells() int {
	if p.part == nil {
		return 0
	}
	return p.part.cells()
}

// Plan prepares a binary join, picking the algorithm from the input
// statistics.
func (pl Planner) Plan(as, bs []index.Item, opts Options) *Plan {
	st := ComputeStats(as, bs)
	return pl.newPlan(pl.Pick(st), st, as, bs, false, opts)
}

// PlanWith prepares a binary join with a forced algorithm choice.
func (pl Planner) PlanWith(algo Algorithm, as, bs []index.Item, opts Options) *Plan {
	return pl.newPlan(algo, ComputeStats(as, bs), as, bs, false, opts)
}

// PlanSelf prepares a self-join, picking the algorithm from the input
// statistics.
func (pl Planner) PlanSelf(items []index.Item, opts Options) *Plan {
	st := ComputeSelfStats(items)
	return pl.newPlan(pl.Pick(st), st, items, items, true, opts)
}

// PlanSelfWith prepares a self-join with a forced algorithm choice.
func (pl Planner) PlanSelfWith(algo Algorithm, items []index.Item, opts Options) *Plan {
	return pl.newPlan(algo, ComputeSelfStats(items), items, items, true, opts)
}

func (pl Planner) newPlan(algo Algorithm, st Stats, as, bs []index.Item, self bool, opts Options) *Plan {
	pl = pl.withDefaults()
	p := &Plan{algo: algo, stats: st, self: self, opts: opts, as: as, bs: bs}
	if len(as) == 0 || len(bs) == 0 || (self && len(as) < 2) {
		// Degenerate plan: zero tasks, empty result.
		return p
	}
	target := pl.TaskTarget
	switch algo {
	case AlgoNestedLoop:
		p.chunkA = chunkFor(len(as), target)
		p.aTasks = tasksFor(len(as), p.chunkA)
	case AlgoPlaneSweep:
		p.sortedA = append([]index.Item(nil), as...)
		sortByMinX(p.sortedA)
		p.chunkA = chunkFor(len(p.sortedA), target)
		p.aTasks = tasksFor(len(p.sortedA), p.chunkA)
		if !self {
			p.sortedB = append([]index.Item(nil), bs...)
			sortByMinX(p.sortedB)
			p.chunkB = chunkFor(len(p.sortedB), target)
			p.bTasks = tasksFor(len(p.sortedB), p.chunkB)
		}
	case AlgoGrid:
		p.prepareGrid(pl.Grid, target)
	case AlgoRTree:
		p.ha = buildFlatHierarchy(as)
		if self {
			p.hb = p.ha
		} else {
			p.hb = buildFlatHierarchy(bs)
		}
		p.buildFrontier(target)
	case AlgoTOUCH:
		// Build over the smaller side, probe with the larger — the whole point
		// of picking TOUCH under cardinality skew.
		build, probe := as, bs
		if !self && len(bs) < len(as) {
			build, probe = bs, as
			p.touchSwap = true
		}
		p.ha = buildFlatHierarchy(build)
		p.touchProbe = probe
		p.chunkB = chunkFor(len(probe), target)
		p.bTasks = tasksFor(len(probe), p.chunkB)
	}
	return p
}

// chunkFor returns the per-task element count that splits n elements into
// roughly `target` tasks.
func chunkFor(n, target int) int {
	c := (n + target - 1) / target
	if c < 1 {
		c = 1
	}
	return c
}

func tasksFor(n, chunk int) int {
	return (n + chunk - 1) / chunk
}

// Tasks returns the number of independent tasks the plan decomposes into.
func (p *Plan) Tasks() int {
	switch p.algo {
	case AlgoNestedLoop:
		return p.aTasks
	case AlgoPlaneSweep:
		return p.aTasks + p.bTasks
	case AlgoGrid:
		return len(p.gridTasks)
	case AlgoRTree:
		return len(p.frontier)
	case AlgoTOUCH:
		return p.bTasks
	}
	return 0
}

// RunTask executes one task, appending its pairs to buf. Distinct tasks emit
// disjoint pair sets (no task-level deduplication is ever needed); within a
// task, pairs are emitted at most once. counters, if non-nil, receives the
// task's comparison accounting instead of the plan's own counters — the hook
// RunParallel uses to keep per-worker accounting contention-free.
func (p *Plan) RunTask(task int, counters *instrument.Counters, buf []Pair) []Pair {
	opts := p.opts
	if counters != nil {
		opts.Counters = counters
	}
	switch p.algo {
	case AlgoNestedLoop:
		return p.runNestedTask(task, opts, buf)
	case AlgoPlaneSweep:
		return p.runSweepTask(task, opts, buf)
	case AlgoGrid:
		return p.runGridTask(task, opts, buf)
	case AlgoRTree:
		return p.runTreeTask(task, opts, buf)
	case AlgoTOUCH:
		return p.runTouchTask(task, opts, buf)
	}
	return buf
}

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
	// Algo is the algorithm the plan executed.
	Algo Algorithm
	// Workers is the number of goroutines actually used.
	Workers int
	// Tasks is the number of independent plan tasks tiled over the pool.
	Tasks int
	// Pairs is the number of result pairs.
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
// uses GOMAXPROCS, bounded by the task count) and returns the pairs in
// canonical (A, then B) order. Tasks are handed out through par's chunked
// atomic cursor (uneven cells and subtrees still balance); each worker
// appends into a private pair buffer and charges a private counter. Tasks
// never emit a pair twice, so the gather is Gather: the worker runs are
// distribution-sorted on A straight into the output — no per-worker sort,
// no merge, no dedup. The aggregated worker accounting is folded back into
// the plan's counters, so Run and RunParallel charge the same totals. Once
// ctx ends, workers stop claiming tasks and the stats are marked Cancelled.
func (p *Plan) RunParallel(ctx context.Context, workers int) ([]Pair, RunStats) {
	n := p.Tasks()
	w := par.Workers(workers, n)
	stats := RunStats{Algo: p.algo, Workers: w, Tasks: n}
	bufs := make([][]Pair, w)
	locals := make([]instrument.Counters, w)
	stats.Cancelled = !par.ForTasksCtx(ctx, n, w, func(worker, task int) {
		bufs[worker] = p.RunTask(task, &locals[worker], bufs[worker])
	})
	out := Gather(bufs, nil)

	stats.PerWorker = make([]instrument.CounterSnapshot, w)
	for i := range locals {
		stats.PerWorker[i] = locals[i].Snapshot()
	}
	stats.Pairs = int64(len(out))
	if c := p.opts.Counters; c != nil {
		agg := stats.Aggregate()
		c.AddComparisons(agg.Comparisons)
		c.AddElemIntersectTests(agg.ElemIntersectTests)
		c.AddTreeIntersectTests(agg.TreeIntersectTests)
	}
	return out, stats
}

// Close returns pooled partitioning buffers for reuse by later plans. The
// plan must not be used afterwards.
func (p *Plan) Close() {
	if p.part != nil {
		putPartitioner(p.part)
		p.part = nil
		p.gridTasks = nil
	}
}

// --- nested loop ---

func (p *Plan) runNestedTask(task int, opts Options, out []Pair) []Pair {
	lo := task * p.chunkA
	hi := minInt(lo+p.chunkA, len(p.as))
	if p.self {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < len(p.as); j++ {
				if opts.match(p.as[i], p.as[j]) {
					out = append(out, orderPair(p.as[i].ID, p.as[j].ID))
				}
			}
		}
		return out
	}
	for i := lo; i < hi; i++ {
		for j := range p.bs {
			if opts.match(p.as[i], p.bs[j]) {
				out = append(out, Pair{A: p.as[i].ID, B: p.bs[j].ID})
			}
		}
	}
	return out
}

// --- plane sweep ---

// runSweepTask sweeps one chunk of the X-sorted inputs. For a binary join the
// candidate pairs are split exactly in two: pairs where b starts at or after a
// (found by the A-side tasks scanning forward in B) and pairs where b starts
// strictly before a (found by the B-side tasks scanning forward in A), so no
// pair is reported twice. The self-join scans forward from each element, the
// classic single-list sweep.
func (p *Plan) runSweepTask(task int, opts Options, out []Pair) []Pair {
	eps := opts.Eps
	if p.self {
		a := p.sortedA
		lo := task * p.chunkA
		hi := minInt(lo+p.chunkA, len(a))
		for i := lo; i < hi; i++ {
			maxX := a[i].Box.Max.X + eps
			for j := i + 1; j < len(a) && a[j].Box.Min.X <= maxX; j++ {
				if opts.match(a[i], a[j]) {
					out = append(out, orderPair(a[i].ID, a[j].ID))
				}
			}
		}
		return out
	}
	if task < p.aTasks {
		lo := task * p.chunkA
		hi := minInt(lo+p.chunkA, len(p.sortedA))
		for i := lo; i < hi; i++ {
			a := p.sortedA[i]
			start := sort.Search(len(p.sortedB), func(k int) bool {
				return p.sortedB[k].Box.Min.X >= a.Box.Min.X
			})
			maxX := a.Box.Max.X + eps
			for k := start; k < len(p.sortedB) && p.sortedB[k].Box.Min.X <= maxX; k++ {
				if opts.match(a, p.sortedB[k]) {
					out = append(out, Pair{A: a.ID, B: p.sortedB[k].ID})
				}
			}
		}
		return out
	}
	task -= p.aTasks
	lo := task * p.chunkB
	hi := minInt(lo+p.chunkB, len(p.sortedB))
	for j := lo; j < hi; j++ {
		b := p.sortedB[j]
		start := sort.Search(len(p.sortedA), func(k int) bool {
			return p.sortedA[k].Box.Min.X > b.Box.Min.X
		})
		maxX := b.Box.Max.X + eps
		for k := start; k < len(p.sortedA) && p.sortedA[k].Box.Min.X <= maxX; k++ {
			if opts.match(p.sortedA[k], b) {
				out = append(out, Pair{A: p.sortedA[k].ID, B: b.ID})
			}
		}
	}
	return out
}

// --- grid (PBSM) ---

// prepareGrid partitions both inputs into the uniform grid using the pooled
// partitioner; tasks are runs of cells with candidate pairs (occupied on both
// sides, or holding at least two elements for self-joins).
func (p *Plan) prepareGrid(cfg GridJoinConfig, target int) {
	u := p.stats.MBRA.Union(p.stats.MBRB).Expand(p.opts.Eps + 1e-9)
	var cells [3]int
	if c := cfg.CellsPerDim; c > 0 {
		c = min(c, maxCellsPerAxis)
		cells = [3]int{c, c, c}
	} else if p.self {
		cells = gridCells(u, p.stats.ExtentA, p.opts.Eps, len(p.as))
	} else {
		na, nb := float64(len(p.as)), float64(len(p.bs))
		ext := p.stats.ExtentA.Scale(na).Add(p.stats.ExtentB.Scale(nb)).Scale(1 / (na + nb))
		cells = gridCells(u, ext, p.opts.Eps, len(p.as)+len(p.bs))
	}
	p.part = getPartitioner(u, cells, p.opts.Eps)
	p.part.assign(p.as, &p.part.a)
	if !p.self {
		p.part.assign(p.bs, &p.part.b)
	}
	p.gridTasks = p.part.split(p.self, target)
}

// runGridTask compares the elements sharing each grid cell of one task. The
// reference point technique makes every pair's emission site unique: a
// candidate pair is examined only in the cell containing the corner point
// max(aMin, bMin) shifted by the assignment expansion — a point that lies in
// both elements' expanded boxes whenever the pair can match, and in exactly
// one cell. That cell is the componentwise max of the two elements' lowest
// cells (the cell mapping is monotone), tested on the integer masks assign
// recorded. Pairs found through border replication in other cells are
// skipped before any comparison is charged, so the grid join emits no
// duplicates at all. Comparisons are counted locally and charged once.
func (p *Plan) runGridTask(task int, opts Options, out []Pair) []Pair {
	t := p.gridTasks[task]
	a, b := &p.part.a, &p.part.b
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
					if opts.within(ia, ib) {
						out = append(out, orderPair(ia.ID, ib.ID))
					}
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
				if ib := &p.bs[j]; opts.within(ia, ib) {
					out = append(out, Pair{A: ia.ID, B: ib.ID})
				}
			}
		}
	}
	if opts.Counters != nil {
		opts.Counters.AddComparisons(comparisons)
	}
	return out
}

// --- synchronized R-Tree traversal ---

// buildFrontier expands the root node pair breadth-first (pruning pairs
// farther than Eps, like the descent itself) until at least `target`
// independent node pairs exist or nothing is expandable. Each frontier pair
// seeds one task's synchronized descent.
func (p *Plan) buildFrontier(target int) {
	eps2 := p.opts.Eps * p.opts.Eps
	queue := make([][2]int32, 1, 2*target)
	queue[0] = [2]int32{0, 0}
	frontier := make([][2]int32, 0, 2*target)
	for i := 0; i < len(queue); i++ {
		pr := queue[i]
		a := &p.ha.nodes[pr[0]]
		b := &p.hb.nodes[pr[1]]
		if p.opts.Counters != nil {
			p.opts.Counters.AddTreeIntersectTests(1)
		}
		if a.box.Distance2(b.box) > eps2 {
			continue
		}
		pending := len(queue) - i - 1
		if (a.leaf && b.leaf) || len(frontier)+pending >= target {
			frontier = append(frontier, pr)
			continue
		}
		switch {
		case a.leaf:
			for j := b.first; j < b.first+b.count; j++ {
				queue = append(queue, [2]int32{pr[0], j})
			}
		case b.leaf:
			for j := a.first; j < a.first+a.count; j++ {
				queue = append(queue, [2]int32{j, pr[1]})
			}
		default:
			for j := a.first; j < a.first+a.count; j++ {
				for k := b.first; k < b.first+b.count; k++ {
					queue = append(queue, [2]int32{j, k})
				}
			}
		}
	}
	p.frontier = frontier
}

func (p *Plan) runTreeTask(task int, opts Options, out []Pair) []Pair {
	pr := p.frontier[task]
	return p.descend(pr[0], pr[1], opts, out)
}

// descend is the synchronized traversal from one node pair, identical to the
// classic R-Tree join. For self-joins only ia.ID < ib.ID pairs are emitted:
// the full items x items traversal visits both orientations of every pair, so
// the filter yields each unordered pair exactly once — with no dedup pass.
func (p *Plan) descend(ai, bi int32, opts Options, out []Pair) []Pair {
	if opts.Counters != nil {
		opts.Counters.AddTreeIntersectTests(1)
	}
	a := &p.ha.nodes[ai]
	b := &p.hb.nodes[bi]
	eps2 := opts.Eps * opts.Eps
	if a.box.Distance2(b.box) > eps2 {
		return out
	}
	switch {
	case a.leaf && b.leaf:
		for i := a.first; i < a.first+a.count; i++ {
			ia := p.ha.item(i)
			for j := b.first; j < b.first+b.count; j++ {
				ib := p.hb.item(j)
				if p.self && ia.ID >= ib.ID {
					continue
				}
				if opts.match(ia, ib) {
					out = append(out, Pair{A: ia.ID, B: ib.ID})
				}
			}
		}
	case a.leaf:
		for j := b.first; j < b.first+b.count; j++ {
			out = p.descend(ai, j, opts, out)
		}
	case b.leaf:
		for i := a.first; i < a.first+a.count; i++ {
			out = p.descend(i, bi, opts, out)
		}
	default:
		for i := a.first; i < a.first+a.count; i++ {
			for j := b.first; j < b.first+b.count; j++ {
				out = p.descend(i, j, opts, out)
			}
		}
	}
	return out
}

// --- TOUCH ---

// runTouchTask fuses TOUCH's assignment and probe phases per probe element:
// each probe descends the build-side hierarchy to the lowest node that could
// hold all its partners, then joins against that node's subtree. Fusing the
// phases removes the shared per-node assignment lists, making probe chunks
// embarrassingly parallel. Self-joins emit only a.ID < b.ID (each unordered
// pair is visited once per orientation, like the tree join).
func (p *Plan) runTouchTask(task int, opts Options, out []Pair) []Pair {
	lo := task * p.chunkB
	hi := minInt(lo+p.chunkB, len(p.touchProbe))
	for k := lo; k < hi; k++ {
		b := p.touchProbe[k]
		node := p.touchNode(b, opts.Eps)
		out = p.probeSubtree(node, b, opts, out)
	}
	return out
}

// touchNode pushes b down the hierarchy as long as exactly one child can
// contain join partners for it (the TOUCH assignment invariant).
func (p *Plan) touchNode(b index.Item, eps float64) int32 {
	expanded := b.Box.Expand(eps)
	cur := int32(0)
	for {
		n := &p.ha.nodes[cur]
		if n.leaf {
			return cur
		}
		var next int32
		matches := 0
		for c := n.first; c < n.first+n.count; c++ {
			if p.ha.nodes[c].box.Intersects(expanded) {
				matches++
				next = c
				if matches > 1 {
					break
				}
			}
		}
		if matches != 1 {
			return cur
		}
		cur = next
	}
}

// probeSubtree compares b against every build element in the subtree rooted
// at ni, pruning subtrees farther than Eps.
func (p *Plan) probeSubtree(ni int32, b index.Item, opts Options, out []Pair) []Pair {
	if opts.Counters != nil {
		opts.Counters.AddTreeIntersectTests(1)
	}
	n := &p.ha.nodes[ni]
	if n.box.Distance2(b.Box) > opts.Eps*opts.Eps {
		return out
	}
	if n.leaf {
		for i := n.first; i < n.first+n.count; i++ {
			a := p.ha.item(i)
			if p.self && a.ID >= b.ID {
				continue
			}
			if p.touchSwap {
				// Build side is bs: restore the (as, bs) orientation for both
				// the refinement predicate and the emitted pair.
				if opts.match(b, a) {
					out = append(out, Pair{A: b.ID, B: a.ID})
				}
			} else if opts.match(a, b) {
				out = append(out, Pair{A: a.ID, B: b.ID})
			}
		}
		return out
	}
	for c := n.first; c < n.first+n.count; c++ {
		out = p.probeSubtree(c, b, opts, out)
	}
	return out
}
