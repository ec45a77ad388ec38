// Package experiments contains the drivers that regenerate every quantitative
// artefact of the paper (Figures 2-4 and the Section 4.1 update-versus-
// rebuild experiment) plus the comparison experiments its survey sections
// imply (index family comparison, join comparison, moving-object strategy
// comparison, whole-simulation-step comparison, mesh/connectivity methods).
//
// Each driver is a pure function from a scale parameter to a result struct
// with a human-readable String method; cmd/spatialbench prints them and the
// root-level benchmarks call them inside testing.B loops. Scales default to
// laptop-sized datasets — the paper's absolute numbers used 200 M elements on
// a disk array, but the relative shapes are what the drivers reproduce.
//
// Experiment index (driver → spatialbench -exp name → what of the paper it
// reproduces):
//
//	E1  Figure2                 fig2                 Figure 2: R-Tree query time, disk vs memory
//	E2  Figure3                 fig3                 Figure 3: in-memory R-Tree time breakdown
//	E3  UpdateVsRebuild         updates              Section 4.1: update vs rebuild crossover
//	E4  Figure4                 fig4                 Figure 4: unnecessary intersection tests
//	E5  IndexComparison         indexes              survey: in-memory index families
//	E5b MeasureLSHRecall        lsh                  Section 3.3: LSH kNN without a tree
//	E6  JoinComparison          join                 survey: spatial self-join algorithms
//	E7  MovingComparison        moving               Section 4.2: moving-object strategies
//	E8  SimStep                 simstep              Figure 1: whole simulation step
//	E9  Mesh                    mesh                 Section 4.3: connectivity-driven queries
//	    AblationGridResolution  ablation-resolution  grid resolution vs the cost model
//	    AblationAdvisor         ablation-advisor     SimIndex maintenance policy
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

// Scale selects dataset and workload sizes for an experiment run.
type Scale struct {
	// Elements is the number of spatial elements in the dataset.
	Elements int
	// Queries is the number of range queries executed.
	Queries int
	// Selectivity is the range-query selectivity as a fraction of the
	// universe volume (the paper uses 5e-6, i.e. 5x10^-4 %).
	Selectivity float64
	// Seed makes runs deterministic.
	Seed int64
}

// DefaultScale is a laptop-sized stand-in for the paper's 200M-element / 200
// query setup.
func DefaultScale() Scale {
	return Scale{Elements: 200000, Queries: 200, Selectivity: 5e-6, Seed: 1}
}

func (s Scale) withDefaults() Scale {
	if s.Elements <= 0 {
		s.Elements = 200000
	}
	if s.Queries <= 0 {
		s.Queries = 200
	}
	if s.Selectivity <= 0 {
		s.Selectivity = 5e-6
	}
	return s
}

// neuronItems builds the synthetic neuroscience dataset used by most
// experiments and returns it together with its items and universe.
func neuronItems(s Scale) (*datagen.Dataset, []index.Item) {
	segPerNeuron := 400
	neurons := s.Elements / segPerNeuron
	if neurons < 1 {
		neurons = 1
		segPerNeuron = s.Elements
	}
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(neurons, segPerNeuron, s.Seed))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return d, items
}

// Figure2Result reproduces Figure 2: the query-time breakdown of the R-Tree
// on disk versus in memory, plus the end-to-end workload times. The paper
// reports 96.7% of the disk time spent reading data versus 3.3% in memory,
// and a 2253 s -> 40 s total-time drop.
type Figure2Result struct {
	DiskReadingPct    float64
	DiskComputePct    float64
	MemoryReadingPct  float64
	MemoryComputePct  float64
	DiskTotal         time.Duration // simulated I/O + modeled computation
	MemoryTotal       time.Duration // measured wall clock
	DiskPagesRead     int64
	MemoryElementsHit int64
}

// String renders the result in the shape of the paper's Figure 2.
func (r Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: query execution time breakdown, R-Tree on disk vs in memory\n")
	fmt.Fprintf(&b, "  %-18s reading data %5.1f%%   computations %5.1f%%   total %v\n",
		"R-Tree on Disk", r.DiskReadingPct, r.DiskComputePct, r.DiskTotal.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-18s reading data %5.1f%%   computations %5.1f%%   total %v\n",
		"R-Tree in Memory", r.MemoryReadingPct, r.MemoryComputePct, r.MemoryTotal.Round(time.Millisecond))
	fmt.Fprintf(&b, "  (paper: disk 96.7%% reading, memory 3.3%% reading; 2253 s vs 40 s)\n")
	return b.String()
}

// Figure2 runs the disk-versus-memory breakdown experiment.
func Figure2(s Scale) Figure2Result {
	s = s.withDefaults()
	d, items := neuronItems(s)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
		N: s.Queries, Selectivity: s.Selectivity, Universe: d.Universe, Seed: s.Seed + 1,
	})

	// Disk run: the serialized compact R-Tree — the exact format the durable
	// epoch store writes — paged onto the simulated disk and queried through
	// the buffer pool with a cold cache per query, the paper's protocol.
	disk := storage.NewDisk(storage.DefaultDiskConfig())
	frozen := rtree.FreezeItems(items, rtree.Config{})
	start, _, err := WriteCompactPages(disk, frozen)
	if err != nil {
		panic(err)
	}
	dt, err := OpenPagedCompact(disk, start, 1<<20)
	if err != nil {
		panic(err)
	}
	disk.ResetStats()
	computeStart := time.Now()
	for _, q := range queries {
		dt.ClearCache()
		if _, err := dt.SearchIDs(q); err != nil {
			panic(err)
		}
	}
	diskComputeMeasured := time.Since(computeStart) // in-memory part of the disk run (decoding, tests)
	ioTime := disk.Stats().SimulatedReadTime
	diskTotal := ioTime + diskComputeMeasured

	// Memory run: in-memory R-Tree, same queries; reading-data share modeled
	// from elements touched (pointer chases / cache misses).
	mt := rtree.NewDefault()
	mt.BulkLoad(items)
	mt.Counters().Reset()
	memStart := time.Now()
	for _, q := range queries {
		index.SearchIDs(mt, q)
	}
	memTotal := time.Since(memStart)
	mc := mt.Counters().Snapshot()
	// Attribute the measured memory time to reading vs computation using the
	// operation counts: touching an element (cache miss + load) is charged as
	// "reading data", every intersection test as computation. The per-op cost
	// ratio (1:12) reflects that an MBR intersection test plus traversal
	// bookkeeping costs an order of magnitude more cycles than a cached load,
	// which is the effect the paper measures (3.3% vs 95.3%).
	readUnits := float64(mc.ElementsTouched)
	computeUnits := 12 * float64(mc.TreeIntersectTests+mc.ElemIntersectTests)
	memReadPct := 100 * readUnits / (readUnits + computeUnits)

	diskReadPct := 100 * float64(ioTime) / float64(diskTotal)
	return Figure2Result{
		DiskReadingPct:    diskReadPct,
		DiskComputePct:    100 - diskReadPct,
		MemoryReadingPct:  memReadPct,
		MemoryComputePct:  100 - memReadPct,
		DiskTotal:         diskTotal,
		MemoryTotal:       memTotal,
		DiskPagesRead:     disk.Stats().PageReads,
		MemoryElementsHit: mc.ElementsTouched,
	}
}

// Figure3Result reproduces Figure 3: the in-memory R-Tree breakdown into
// reading data, intersection tests against the tree, intersection tests
// against elements, and remaining computation (paper: ~3%, ~55%, ~25%, ~17%).
type Figure3Result struct {
	ReadingPct       float64
	TreeTestsPct     float64
	ElementTestsPct  float64
	RemainingPct     float64
	TreeTests        int64
	ElementTests     int64
	ElementsTouched  int64
	QueriesExecuted  int
	MeasuredWallTime time.Duration
}

// String renders the result in the shape of the paper's Figure 3.
func (r Figure3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: in-memory R-Tree query execution breakdown\n")
	fmt.Fprintf(&b, "  reading data                  %5.1f%%\n", r.ReadingPct)
	fmt.Fprintf(&b, "  intersection tests (tree)     %5.1f%%\n", r.TreeTestsPct)
	fmt.Fprintf(&b, "  intersection tests (elements) %5.1f%%\n", r.ElementTestsPct)
	fmt.Fprintf(&b, "  remaining computation         %5.1f%%\n", r.RemainingPct)
	fmt.Fprintf(&b, "  (paper: ~3%% / ~55%% / ~25%% / ~17%%)\n")
	return b.String()
}

// Figure3 runs the in-memory breakdown experiment.
func Figure3(s Scale) Figure3Result {
	s = s.withDefaults()
	d, items := neuronItems(s)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
		N: s.Queries, Selectivity: s.Selectivity, Universe: d.Universe, Seed: s.Seed + 2,
	})
	t := rtree.NewDefault()
	t.BulkLoad(items)
	t.Counters().Reset()
	start := time.Now()
	for _, q := range queries {
		index.SearchIDs(t, q)
	}
	wall := time.Since(start)
	c := t.Counters().Snapshot()

	// Convert operation counts into the paper's four categories with a cost
	// model: element loads are cheap (cache line fetch), node tests dominate
	// because each one touches several entries and branches, element tests
	// include the exact geometry comparison, and a fixed per-query overhead
	// covers result materialization.
	model := instrument.CostModel{
		PageReadCost:    0,
		NodeTestCost:    22 * time.Nanosecond,
		ElementTestCost: 20 * time.Nanosecond,
		ElementReadCost: 2 * time.Nanosecond,
		OverheadCost:    time.Microsecond,
	}
	b := model.Apply(c, len(queries))
	total := float64(b.Total())
	if total == 0 {
		total = 1
	}
	return Figure3Result{
		ReadingPct:       b.Percent(instrument.CatReadingData),
		TreeTestsPct:     b.Percent(instrument.CatIntersectTree),
		ElementTestsPct:  b.Percent(instrument.CatIntersectElement),
		RemainingPct:     b.Percent(instrument.CatRemaining),
		TreeTests:        c.TreeIntersectTests,
		ElementTests:     c.ElemIntersectTests,
		ElementsTouched:  c.ElementsTouched,
		QueriesExecuted:  len(queries),
		MeasuredWallTime: wall,
	}
}

// Figure4Result reproduces the argument of Figure 4: on clustered data,
// data-oriented partitioning (R-Tree) forces many more element intersection
// tests per range query than space-oriented partitioning (uniform grid),
// because elongated partitions intersecting the query contribute all their
// elements as candidates.
type Figure4Result struct {
	RTreeElementTestsPerQuery float64
	GridElementTestsPerQuery  float64
	ResultsPerQuery           float64
	// UnnecessaryRatioRTree is element tests divided by actual results (the
	// wasted-work factor Figure 4 illustrates).
	UnnecessaryRatioRTree float64
	UnnecessaryRatioGrid  float64
}

// String renders the comparison.
func (r Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: unnecessary intersection tests, data- vs space-oriented partitioning\n")
	fmt.Fprintf(&b, "  results per query                 %8.1f\n", r.ResultsPerQuery)
	fmt.Fprintf(&b, "  R-Tree element tests per query    %8.1f  (%.1fx the results)\n", r.RTreeElementTestsPerQuery, r.UnnecessaryRatioRTree)
	fmt.Fprintf(&b, "  Grid   element tests per query    %8.1f  (%.1fx the results)\n", r.GridElementTestsPerQuery, r.UnnecessaryRatioGrid)
	return b.String()
}

// Figure4 runs the unnecessary-intersection-test experiment on clustered
// (neuron) data.
func Figure4(s Scale) Figure4Result {
	s = s.withDefaults()
	d, items := neuronItems(s)
	queries := datagen.GenerateDataCenteredQueries(d, s.Queries, s.Selectivity*20, s.Seed+3)

	rt := rtree.NewDefault()
	rt.BulkLoad(items)
	rt.Counters().Reset()
	for _, q := range queries {
		index.SearchIDs(rt, q)
	}
	rc := rt.Counters().Snapshot()

	// A fine space-oriented grid: the elements are tiny relative to the
	// universe, so pushing the resolution well past the density heuristic
	// keeps per-cell candidate lists short without noticeable replication.
	res := grid.ResolutionModel{TargetPerCell: 2}
	boxes := make([]geom.AABB, len(items))
	for i := range items {
		boxes[i] = items[i].Box
	}
	g := grid.New(grid.Config{Universe: d.Universe, CellsPerDim: res.SuggestResolutionForDataset(d.Universe, boxes)})
	g.BulkLoad(items)
	g.Counters().Reset()
	for _, q := range queries {
		index.SearchIDs(g, q)
	}
	gc := g.Counters().Snapshot()

	nq := float64(len(queries))
	results := float64(gc.Results) / nq
	rtTests := float64(rc.ElemIntersectTests) / nq
	gTests := float64(gc.ElemIntersectTests) / nq
	safe := func(v float64) float64 {
		if results == 0 {
			return 0
		}
		return v / results
	}
	return Figure4Result{
		RTreeElementTestsPerQuery: rtTests,
		GridElementTestsPerQuery:  gTests,
		ResultsPerQuery:           results,
		UnnecessaryRatioRTree:     safe(rtTests),
		UnnecessaryRatioGrid:      safe(gTests),
	}
}

// UpdateVsRebuildRow is one row of the Section 4.1 experiment sweep.
type UpdateVsRebuildRow struct {
	FractionChanged float64
	UpdateTime      time.Duration
	RebuildTime     time.Duration
	UpdateWins      bool
}

// UpdateVsRebuildResult reproduces the Section 4.1 experiment: per-element
// R-Tree updates versus a full STR rebuild, as a function of the fraction of
// elements that move. The paper reports updates winning only below ~38%.
type UpdateVsRebuildResult struct {
	Rows []UpdateVsRebuildRow
	// CrossoverFraction is the interpolated fraction where the two curves
	// meet.
	CrossoverFraction float64
	// MovementStats reports the plasticity-movement characteristics (the
	// paper: mean 0.04 µm, <0.5% above 0.1 µm).
	Movement datagen.MovementStats
}

// String renders the sweep as a table.
func (r UpdateVsRebuildResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4.1: R-Tree update vs rebuild under massive minimal movement\n")
	fmt.Fprintf(&b, "  movement: mean %.4f, max %.4f, frac>%.2f = %.3f%%\n",
		r.Movement.MeanDisplacement, r.Movement.MaxDisplacement, r.Movement.Threshold, 100*r.Movement.FractionAboveThreshold)
	fmt.Fprintf(&b, "  %-18s %-14s %-14s %s\n", "fraction changed", "update", "rebuild", "winner")
	for _, row := range r.Rows {
		winner := "rebuild"
		if row.UpdateWins {
			winner = "update"
		}
		fmt.Fprintf(&b, "  %-18.2f %-14v %-14v %s\n", row.FractionChanged,
			row.UpdateTime.Round(time.Microsecond), row.RebuildTime.Round(time.Microsecond), winner)
	}
	fmt.Fprintf(&b, "  crossover at ~%.0f%% changed (paper: ~38%%)\n", 100*r.CrossoverFraction)
	return b.String()
}

// UpdateVsRebuild times each side of a row up to updateRebuildReps times,
// stopping early once the row has spent updateRebuildBudget; the row reports
// the fastest run of each side. Small scales, where one GC pause or
// preemption would otherwise decide the winner, get every repetition; large
// ones, whose runs are long enough to average such noise out, get one.
const (
	updateRebuildReps   = 5
	updateRebuildBudget = 100 * time.Millisecond
)

// UpdateVsRebuild runs the Section 4.1 sweep over the given fractions of the
// dataset changing per step (defaults to 5%..100%).
func UpdateVsRebuild(s Scale, fractions []float64) UpdateVsRebuildResult {
	s = s.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0}
	}
	d, items := neuronItems(s)
	// Report the plasticity movement statistics once, on a clone.
	probe := d.Clone()
	movement := datagen.NewPlasticityModel(s.Seed + 4).Step(probe)

	var result UpdateVsRebuildResult
	result.Movement = movement
	for _, frac := range fractions {
		// Pick the moved subset deterministically and compute new boxes.
		moved := d.Clone()
		model := datagen.NewPartialPlasticityModel(s.Seed+5, frac)
		model.Step(moved)
		newItems := make([]index.Item, moved.Len())
		for i := range moved.Elements {
			newItems[i] = index.Item{ID: moved.Elements[i].ID, Box: moved.Elements[i].Box}
		}

		var updateTime, rebuildTime, spent time.Duration
		for rep := 0; rep < updateRebuildReps && (rep == 0 || spent < updateRebuildBudget); rep++ {
			// Per-element updates on a fresh tree.
			t := rtree.NewDefault()
			t.BulkLoad(items)
			runtime.GC()
			start := time.Now()
			for i := range moved.Elements {
				if moved.Elements[i].Box != d.Elements[i].Box {
					t.Update(moved.Elements[i].ID, d.Elements[i].Box, moved.Elements[i].Box)
				}
			}
			el := time.Since(start)
			spent += el
			if rep == 0 || el < updateTime {
				updateTime = el
			}

			// Full rebuild from the new state.
			t2 := rtree.NewDefault()
			runtime.GC()
			start = time.Now()
			t2.BulkLoad(newItems)
			el = time.Since(start)
			spent += el
			if rep == 0 || el < rebuildTime {
				rebuildTime = el
			}
		}

		result.Rows = append(result.Rows, UpdateVsRebuildRow{
			FractionChanged: frac,
			UpdateTime:      updateTime,
			RebuildTime:     rebuildTime,
			UpdateWins:      updateTime < rebuildTime,
		})
	}
	result.CrossoverFraction = interpolateCrossover(result.Rows)
	return result
}

// interpolateCrossover finds where the update-time curve crosses the
// rebuild-time curve.
func interpolateCrossover(rows []UpdateVsRebuildRow) float64 {
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		prevDiff := float64(prev.UpdateTime - prev.RebuildTime)
		curDiff := float64(cur.UpdateTime - cur.RebuildTime)
		if prevDiff <= 0 && curDiff >= 0 && curDiff != prevDiff {
			t := -prevDiff / (curDiff - prevDiff)
			return prev.FractionChanged + t*(cur.FractionChanged-prev.FractionChanged)
		}
	}
	if len(rows) > 0 && rows[len(rows)-1].UpdateWins {
		return 1
	}
	if len(rows) > 0 && !rows[0].UpdateWins {
		return rows[0].FractionChanged
	}
	return 0
}
