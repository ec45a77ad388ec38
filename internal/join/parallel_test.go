package join_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/join"
)

func joinItems(n int, seed int64, offset geom.Vec3) []index.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*40, r.Float64()*40, r.Float64()*40).Add(offset)
		half := geom.V(r.Float64()*0.4, r.Float64()*0.4, r.Float64()*0.4)
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

func clusteredJoinItems(n int, seed int64) []index.Item {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(80, 80, 80))
	d := datagen.GenerateClustered(datagen.ClusteredConfig{N: n, Clusters: 8, Universe: u, Seed: seed})
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items
}

func canonPairs(pairs []join.Pair) []join.Pair {
	c := append([]join.Pair(nil), pairs...)
	return join.DedupPairs(c)
}

// gridResolutions are the grid sizings the plan tests run at: data-sized,
// one cell for the whole universe, and a fixed coarse grid.
var gridResolutions = []int{0, 1, 7}

// TestParallelJoinConformance is the randomized conformance check of the
// served join: the grid, sequential (Plan.Run) and parallel (RunParallel at
// several worker counts) at every resolution, and each survey join, must
// return the same pair set as the nested-loop ground truth on both uniform
// and clustered data. It runs under -race in CI, so it also exercises the
// task tiling for races.
func TestParallelJoinConformance(t *testing.T) {
	datasets := map[string][]index.Item{
		"uniform":   joinItems(600, 11, geom.Vec3{}),
		"clustered": clusteredJoinItems(600, 12),
	}
	for name, items := range datasets {
		eps := 0.6
		want := canonPairs(join.SelfNestedLoop(items, join.Options{Eps: eps}))
		if len(want) == 0 {
			t.Fatalf("%s: ground truth empty; test data too sparse", name)
		}
		for _, cells := range gridResolutions {
			p := join.Planner{Grid: join.GridJoinConfig{CellsPerDim: cells}}.PlanSelf(items, join.Options{Eps: eps})
			if got := p.Run(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/cells=%d sequential: %d pairs, want %d", name, cells, len(got), len(want))
			}
			for _, workers := range []int{1, 2, 4} {
				got, stats := p.RunParallel(context.Background(), workers, 0)
				if !reflect.DeepEqual(canonPairs(got), want) {
					t.Errorf("%s/cells=%d parallel w=%d: %d pairs, want %d", name, cells, workers, len(got), len(want))
				}
				if stats.Pairs != int64(len(got)) {
					t.Errorf("%s/cells=%d: stats.Pairs=%d, len=%d", name, cells, stats.Pairs, len(got))
				}
			}
			p.Close()
		}
		for _, k := range surveyJoins {
			if got := k.self(items, join.Options{Eps: eps}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: %d pairs, want %d", name, k.name, len(got), len(want))
			}
		}
	}
}

// TestParallelJoinBinaryConformance checks the binary (two-input) variants:
// the grid on four workers and each survey join.
func TestParallelJoinBinaryConformance(t *testing.T) {
	as := joinItems(400, 13, geom.Vec3{})
	bs := joinItems(400, 14, geom.V(0.3, 0.3, 0.3))
	for i := range bs {
		bs[i].ID += 100000
	}
	eps := 0.8
	want := canonPairs(join.NestedLoop(as, bs, join.Options{Eps: eps}))
	if len(want) == 0 {
		t.Fatal("ground truth empty")
	}
	p := join.Planner{}.Plan(as, bs, join.Options{Eps: eps})
	got, _ := p.RunParallel(context.Background(), 4, 0)
	if !reflect.DeepEqual(canonPairs(got), want) {
		t.Errorf("grid: %d pairs, want %d", len(got), len(want))
	}
	p.Close()
	for _, k := range surveyJoins {
		if got := k.binary(as, bs, join.Options{Eps: eps}); !reflect.DeepEqual(canonPairs(got), want) {
			t.Errorf("%s: %d pairs, want %d", k.name, len(got), len(want))
		}
	}
}

// TestParallelJoinPlannerAuto runs a default Planner's plan end to end: the
// data-sized grid on four workers, with its run statistics.
func TestParallelJoinPlannerAuto(t *testing.T) {
	items := joinItems(800, 15, geom.Vec3{})
	eps := 0.5
	want := canonPairs(join.SelfNestedLoop(items, join.Options{Eps: eps}))
	p := join.Planner{}.PlanSelf(items, join.Options{Eps: eps})
	defer p.Close()
	got, stats := p.RunParallel(context.Background(), 4, 0)
	if !reflect.DeepEqual(canonPairs(got), want) {
		t.Fatalf("default plan: %d pairs, want %d", len(got), len(want))
	}
	if stats.Pairs != int64(len(want)) || stats.Tasks != p.Tasks() || stats.Workers != 4 || len(stats.PerWorker) != 4 {
		t.Fatalf("stats %+v for %d pairs and %d tasks", stats, len(want), p.Tasks())
	}
}

// TestParallelJoinCountersMatchSequential verifies the per-worker counter
// fold: the plan's counters must accumulate the same comparison totals
// whether tasks run sequentially or tiled over workers.
func TestParallelJoinCountersMatchSequential(t *testing.T) {
	items := joinItems(500, 16, geom.Vec3{})
	eps := 0.5
	var seqC instrument.Counters
	p1 := join.Planner{}.PlanSelf(items, join.Options{Eps: eps, Counters: &seqC})
	p1.Run()
	p1.Close()
	seqComparisons := seqC.Comparisons()

	var parC instrument.Counters
	p2 := join.Planner{}.PlanSelf(items, join.Options{Eps: eps, Counters: &parC})
	_, stats := p2.RunParallel(context.Background(), 4, 0)
	p2.Close()
	if parC.Comparisons() != seqComparisons {
		t.Fatalf("parallel fold charged %d comparisons, sequential %d", parC.Comparisons(), seqComparisons)
	}
	if agg := stats.Aggregate(); agg.Comparisons != seqComparisons {
		t.Fatalf("per-worker aggregate %d comparisons, sequential %d", agg.Comparisons, seqComparisons)
	}
}

// TestParallelJoinSharedPlan exercises the read-only plan contract: many
// goroutines running the same plan concurrently (each with its own arena)
// must all see the full result.
func TestParallelJoinSharedPlan(t *testing.T) {
	items := joinItems(400, 17, geom.Vec3{})
	eps := 0.5
	p := join.Planner{}.PlanSelf(items, join.Options{Eps: eps})
	defer p.Close()
	want := canonPairs(p.Run())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := p.RunParallel(context.Background(), 2, 0)
			if !reflect.DeepEqual(canonPairs(got), want) {
				t.Errorf("concurrent run diverged: %d pairs, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}

func benchmarkSelfJoin(b *testing.B, workers int) {
	items := clusteredJoinItems(20000, 21)
	opts := join.Options{Eps: 0.25}
	p := join.Planner{}.PlanSelf(items, opts)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers <= 1 {
			p.Run()
		} else {
			p.RunParallel(context.Background(), workers, 0)
		}
	}
}

func BenchmarkSelfGridJoinSequential(b *testing.B) { benchmarkSelfJoin(b, 1) }
func BenchmarkSelfGridJoinParallel4(b *testing.B)  { benchmarkSelfJoin(b, 4) }

// BenchmarkSelfGridJoinNeuron is the join workload's self-join at a quarter
// of its size: 50 neurons × 1000 segments in the generator's own universe, at
// the workload's eps (0.3 in its 100-unit universe) scaled to this one. Each
// iteration plans and runs the grid join on the pool, as Store.SelfJoin
// does; comparisons/pair is the paper's yardstick of join work.
func BenchmarkSelfGridJoinNeuron(b *testing.B) {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(50, 1000, 1))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	eps := 0.3 * d.Universe.Size().X / 100
	var c instrument.Counters
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := join.Planner{}.PlanSelf(items, join.Options{Eps: eps, Counters: &c})
		out, _ := p.RunParallel(context.Background(), 0, 0)
		pairs = len(out)
		p.Close()
	}
	b.ReportMetric(float64(c.Comparisons())/float64(b.N)/float64(max(pairs, 1)), "comparisons/pair")
}

// TestRunParallelLimit: under a limit, RunParallel returns exactly the first
// limit pairs of the full canonical list and counts every pair, at every
// grid resolution and worker count and a limit below, at and above the
// count.
func TestRunParallelLimit(t *testing.T) {
	datasets := map[string][]index.Item{
		"uniform":   joinItems(600, 11, geom.Vec3{}),
		"clustered": clusteredJoinItems(600, 12),
	}
	for name, items := range datasets {
		opts := join.Options{Eps: 0.6}
		for _, cells := range gridResolutions {
			p := join.Planner{Grid: join.GridJoinConfig{CellsPerDim: cells}}.PlanSelf(items, opts)
			full, fullStats := p.RunParallel(context.Background(), 2, 0)
			count := len(full)
			if count < 8 || fullStats.Pairs != int64(count) {
				t.Fatalf("%s/cells=%d: %d pairs, stats count %d", name, cells, count, fullStats.Pairs)
			}
			for _, limit := range []int{1, 7, count / 3, count - 1, count, count + 5, math.MaxInt} {
				for _, workers := range []int{1, 2, 4} {
					got, stats := p.RunParallel(context.Background(), workers, limit)
					if want := full[:min(limit, count)]; !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/cells=%d limit=%d workers=%d: %d pairs, not the first %d of the full list",
							name, cells, limit, workers, len(got), len(want))
					}
					if stats.Pairs != int64(count) || stats.Cancelled {
						t.Fatalf("%s/cells=%d limit=%d workers=%d: count %d (cancelled %v), want %d",
							name, cells, limit, workers, stats.Pairs, stats.Cancelled, count)
					}
				}
			}
			p.Close()
		}
	}
}

// TestRunParallelCancelledIsSubset: a join whose context ends mid-run is
// marked Cancelled; its pairs are a canonical-order subset of the truth and
// its count is at most the true count, with and without a limit.
func TestRunParallelCancelledIsSubset(t *testing.T) {
	items := clusteredJoinItems(2000, 13)
	truth, _ := join.Planner{}.PlanSelf(items, join.Options{Eps: 0.6}).RunParallel(context.Background(), 2, 0)
	inTruth := make(map[join.Pair]bool, len(truth))
	for _, pr := range truth {
		inTruth[pr] = true
	}
	for _, limit := range []int{0, 1, 50} {
		for _, workers := range []int{1, 2, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var refined sync.Once
			// The refinement runs inside a task: the first call ends the
			// context, so the pool stops claiming tasks after the ones in
			// flight.
			opts := join.Options{Eps: 0.6, Refine: func(a, b index.Item) bool {
				refined.Do(cancel)
				return true
			}}
			p := join.Planner{}.PlanSelf(items, opts)
			got, stats := p.RunParallel(ctx, workers, limit)
			p.Close()
			cancel()
			if !stats.Cancelled {
				t.Fatalf("limit=%d workers=%d: a run whose context ended is not marked cancelled", limit, workers)
			}
			if stats.Pairs > int64(len(truth)) || int64(len(got)) > stats.Pairs || (limit > 0 && len(got) > limit) {
				t.Fatalf("limit=%d workers=%d: %d pairs of count %d, truth %d", limit, workers, len(got), stats.Pairs, len(truth))
			}
			for i, pr := range got {
				if !inTruth[pr] || (i > 0 && (got[i-1].A > pr.A || (got[i-1].A == pr.A && got[i-1].B >= pr.B))) {
					t.Fatalf("limit=%d workers=%d: pair %d %+v is not in the truth or out of order", limit, workers, i, pr)
				}
			}
		}
	}
}
