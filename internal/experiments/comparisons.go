package experiments

import (
	"fmt"
	"strings"
	"time"

	"spatialsim/internal/crtree"
	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/join"
	"spatialsim/internal/join/survey"
	"spatialsim/internal/lsh"
	"spatialsim/internal/moving"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

// IndexRow is one row of the in-memory index comparison (experiment E5).
type IndexRow struct {
	Name         string
	BuildTime    time.Duration
	RangeTime    time.Duration
	KNNTime      time.Duration
	ElementTests int64
	TreeTests    int64
}

// IndexComparisonResult compares the in-memory index families the paper
// surveys on identical range and kNN workloads.
type IndexComparisonResult struct {
	Rows    []IndexRow
	Queries int
	KNN     int
}

// String renders the comparison as a table.
func (r IndexComparisonResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5: in-memory index comparison (%d range queries, %d kNN queries)\n", r.Queries, r.KNN)
	fmt.Fprintf(&b, "  %-14s %-12s %-12s %-12s %-14s %s\n", "index", "build", "range", "kNN", "elem tests", "node/cell tests")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %-12v %-12v %-12v %-14d %d\n",
			row.Name, row.BuildTime.Round(time.Microsecond), row.RangeTime.Round(time.Microsecond),
			row.KNNTime.Round(time.Microsecond), row.ElementTests, row.TreeTests)
	}
	return b.String()
}

// IndexComparison runs range and kNN workloads over every in-memory index
// family.
func IndexComparison(s Scale) IndexComparisonResult {
	s = s.withDefaults()
	d, items := neuronItems(s)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
		N: s.Queries, Selectivity: s.Selectivity * 10, Universe: d.Universe, Seed: s.Seed + 10,
	})
	knnPoints := datagen.GenerateKNNQueries(s.Queries/2, d.Universe, s.Seed+11)
	const k = 8

	boxes := make([]geom.AABB, len(items))
	for i := range items {
		boxes[i] = items[i].Box
	}
	resolution := grid.ResolutionModel{}.SuggestResolutionForDataset(d.Universe, boxes)

	indexes := []index.Index{
		rtree.NewDefault(),
		crtree.New(crtree.Config{}),
		grid.New(grid.Config{Universe: d.Universe, CellsPerDim: resolution}),
		grid.NewMulti(grid.MultiConfig{Universe: d.Universe, CoarsestCells: 8, Levels: 4}),
		octree.New(octree.Config{Universe: d.Universe, LeafCapacity: 32, MaxDepth: 9}),
		octree.New(octree.Config{Universe: d.Universe, LeafCapacity: 32, MaxDepth: 9, Loose: true}),
		index.NewLinearScan(),
	}

	result := IndexComparisonResult{Queries: len(queries), KNN: len(knnPoints)}
	for _, ix := range indexes {
		loader := ix.(index.BulkLoader)
		start := time.Now()
		loader.BulkLoad(items)
		buildTime := time.Since(start)

		if c := ix.Counters(); c != nil {
			c.Reset()
		}
		start = time.Now()
		for _, q := range queries {
			ix.Search(q, func(index.Item) bool { return true })
		}
		rangeTime := time.Since(start)

		start = time.Now()
		for _, p := range knnPoints {
			ix.KNN(p, k)
		}
		knnTime := time.Since(start)

		var snap instrument.CounterSnapshot
		if mg, ok := ix.(*grid.MultiGrid); ok {
			snap = mg.AggregateCounters()
		} else if c := ix.Counters(); c != nil {
			snap = c.Snapshot()
		}
		result.Rows = append(result.Rows, IndexRow{
			Name:         ix.Name(),
			BuildTime:    buildTime,
			RangeTime:    rangeTime,
			KNNTime:      knnTime,
			ElementTests: snap.ElemIntersectTests,
			TreeTests:    snap.TreeIntersectTests,
		})
	}
	return result
}

// LSHRecall measures the kNN recall of the LSH index against the exact
// KD-Tree answer (the paper's suggestion that LSH can serve low-dimensional
// kNN without any tree).
type LSHRecall struct {
	Queries int
	Recall  float64
	Time    time.Duration
}

// String renders the recall measurement.
func (r LSHRecall) String() string {
	return fmt.Sprintf("E5b: LSH nearest-neighbor recall over %d queries: %.1f%% (%v)", r.Queries, 100*r.Recall, r.Time.Round(time.Microsecond))
}

// MeasureLSHRecall runs the LSH nearest-neighbor experiment. Query points are
// placed near existing elements (the neuroscience use case: find the
// neighbors of a neuron segment), where hash buckets are well populated.
func MeasureLSHRecall(s Scale) LSHRecall {
	s = s.withDefaults()
	d, _ := neuronItems(s)
	side := d.Universe.Size().X
	w := side / 40
	ix := lsh.New(lsh.Config{CellWidth: w, Tables: 6, MultiProbe: true, Seed: s.Seed + 12})
	for i := range d.Elements {
		ix.Insert(d.Elements[i].ID, d.Elements[i].Position)
	}
	queries := datagen.GenerateDataCenteredQueries(d, s.Queries, s.Selectivity, s.Seed+13)
	hits := 0
	start := time.Now()
	for _, q := range queries {
		p := q.Center()
		got, ok := ix.Nearest(p)
		if !ok {
			continue
		}
		// Exact answer by scanning.
		best := int64(-1)
		bestD := 1e300
		for i := range d.Elements {
			if dd := d.Elements[i].Position.Dist2(p); dd < bestD {
				best, bestD = d.Elements[i].ID, dd
			}
		}
		if got.ID == best || got.Pos.Dist2(p) <= bestD+1e-12 {
			hits++
		}
	}
	elapsed := time.Since(start)
	return LSHRecall{Queries: len(queries), Recall: float64(hits) / float64(len(queries)), Time: elapsed}
}

// JoinRow is one row of the spatial join comparison (experiment E6).
type JoinRow struct {
	Name        string
	Time        time.Duration
	Comparisons int64
	Pairs       int
}

// JoinComparisonResult compares the join algorithms on the synapse-detection
// self-join workload.
type JoinComparisonResult struct {
	Rows     []JoinRow
	Elements int
	Eps      float64
}

// String renders the comparison as a table.
func (r JoinComparisonResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E6: spatial self-join comparison (%d elements, eps=%g)\n", r.Elements, r.Eps)
	fmt.Fprintf(&b, "  %-14s %-14s %-16s %s\n", "algorithm", "time", "comparisons", "pairs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %-14v %-16d %d\n", row.Name, row.Time.Round(time.Microsecond), row.Comparisons, row.Pairs)
	}
	return b.String()
}

// JoinComparison runs the synapse-detection self-join with every join
// algorithm. The nested loop is skipped above 20k elements (it would dominate
// the runtime without adding information).
func JoinComparison(s Scale) JoinComparisonResult {
	s = s.withDefaults()
	d, items := neuronItems(s)
	eps := d.Universe.Size().X / 2000

	result := JoinComparisonResult{Elements: len(items), Eps: eps}
	type algo struct {
		name string
		run  func(opts join.Options) []join.Pair
	}
	algos := []algo{
		{"sweep", func(o join.Options) []join.Pair { return survey.SelfPlaneSweep(items, o) }},
		{"grid", func(o join.Options) []join.Pair { return join.SelfGridJoin(items, o, join.GridJoinConfig{}) }},
		{"rtree-sync", func(o join.Options) []join.Pair { return survey.SelfRTreeJoin(items, o) }},
		{"touch", func(o join.Options) []join.Pair { return survey.SelfTOUCHJoin(items, o) }},
	}
	if len(items) <= 20000 {
		algos = append([]algo{{"nested-loop", func(o join.Options) []join.Pair { return join.SelfNestedLoop(items, o) }}}, algos...)
	}
	for _, a := range algos {
		var c instrument.Counters
		start := time.Now()
		pairs := a.run(join.Options{Eps: eps, Counters: &c})
		elapsed := time.Since(start)
		result.Rows = append(result.Rows, JoinRow{
			Name:        a.name,
			Time:        elapsed,
			Comparisons: c.Comparisons(),
			Pairs:       len(pairs),
		})
	}
	return result
}

// MovingRow is one row of the moving-object strategy comparison (E7).
type MovingRow struct {
	Name        string
	UpdateTime  time.Duration
	QueryTime   time.Duration
	TotalTime   time.Duration
	InnerOps    int64 // updates that reached the wrapped index
	ResultError int   // result-count deviation from ground truth (should be 0)
}

// MovingComparisonResult compares per-step maintenance strategies under
// plasticity movement with interleaved monitoring queries.
type MovingComparisonResult struct {
	Rows    []MovingRow
	Steps   int
	Queries int
}

// String renders the comparison as a table.
func (r MovingComparisonResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7: moving-object update strategies (%d steps, %d queries/step)\n", r.Steps, r.Queries)
	fmt.Fprintf(&b, "  %-18s %-14s %-14s %-14s %s\n", "strategy", "updates", "queries", "total", "result errors")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %-14v %-14v %-14v %d\n", row.Name,
			row.UpdateTime.Round(time.Microsecond), row.QueryTime.Round(time.Microsecond),
			row.TotalTime.Round(time.Microsecond), row.ResultError)
	}
	return b.String()
}

// MovingComparison drives each strategy through the same movement trace and
// query workload and reports where the time goes.
func MovingComparison(s Scale, steps, queriesPerStep int) MovingComparisonResult {
	s = s.withDefaults()
	if steps <= 0 {
		steps = 5
	}
	if queriesPerStep <= 0 {
		queriesPerStep = 50
	}
	base, items := neuronItems(s)

	type strategy struct {
		name string
		make func() index.Index
	}
	universe := base.Universe
	boxes := make([]geom.AABB, len(items))
	for i := range items {
		boxes[i] = items[i].Box
	}
	resolution := grid.ResolutionModel{}.SuggestResolutionForDataset(universe, boxes)
	strategies := []strategy{
		{"rtree-inplace", func() index.Index { return rtree.NewDefault() }},
		{"rtree-throwaway", func() index.Index { return moving.NewThrowaway(rtree.NewDefault()) }},
		{"rtree-lazy", func() index.Index { return moving.NewLazy(rtree.NewDefault(), universe.Size().X/500) }},
		{"rtree-buffered", func() index.Index { return moving.NewBuffered(rtree.NewDefault(), len(items)/4) }},
		{"grid-inplace", func() index.Index { return grid.New(grid.Config{Universe: universe, CellsPerDim: resolution}) }},
	}

	result := MovingComparisonResult{Steps: steps, Queries: queriesPerStep}
	for _, st := range strategies {
		// Each strategy gets an identical dataset clone and movement trace.
		d := base.Clone()
		ix := st.make()
		if loader, ok := ix.(index.BulkLoader); ok {
			loader.BulkLoad(items)
		} else {
			for _, it := range items {
				ix.Insert(it.ID, it.Box)
			}
		}
		model := datagen.NewPlasticityModel(s.Seed + 20)
		var updateTime, queryTime time.Duration
		resultErr := 0
		for step := 0; step < steps; step++ {
			old := make([]geom.AABB, d.Len())
			for i := range d.Elements {
				old[i] = d.Elements[i].Box
			}
			model.Step(d)
			startU := time.Now()
			for i := range d.Elements {
				ix.Update(d.Elements[i].ID, old[i], d.Elements[i].Box)
			}
			if tw, ok := ix.(*moving.Throwaway); ok {
				tw.Rebuild()
			}
			updateTime += time.Since(startU)

			queries := datagen.GenerateDataCenteredQueries(d, queriesPerStep, s.Selectivity*50, s.Seed+int64(step))
			startQ := time.Now()
			got := 0
			for _, q := range queries {
				ix.Search(q, func(index.Item) bool {
					got++
					return true
				})
			}
			queryTime += time.Since(startQ)
			// Ground truth for the same queries.
			want := 0
			for _, q := range queries {
				for i := range d.Elements {
					if q.Intersects(d.Elements[i].Box) {
						want++
					}
				}
			}
			if got != want {
				resultErr += abs(got - want)
			}
		}
		var innerOps int64
		if c := ix.Counters(); c != nil {
			innerOps = c.Updates()
		}
		result.Rows = append(result.Rows, MovingRow{
			Name:        st.name,
			UpdateTime:  updateTime,
			QueryTime:   queryTime,
			TotalTime:   updateTime + queryTime,
			InnerOps:    innerOps,
			ResultError: resultErr,
		})
	}
	return result
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
