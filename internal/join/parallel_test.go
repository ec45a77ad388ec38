package join_test

import (
	"context"
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

var joinAlgos = []join.Algorithm{
	join.AlgoNestedLoop, join.AlgoPlaneSweep, join.AlgoGrid, join.AlgoRTree, join.AlgoTOUCH,
}

// TestParallelJoinConformance is the randomized cross-algorithm conformance
// check of the tentpole: all five algorithms, sequential (Plan.Run) and
// parallel (RunParallel at several worker counts), must return the same pair
// set as the nested-loop ground truth on both uniform and clustered data.
// It runs under -race in CI, so it also exercises the task tiling for races.
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
		for _, algo := range joinAlgos {
			p := join.Planner{}.PlanSelfWith(algo, items, join.Options{Eps: eps})
			if got := p.Run(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v sequential: %d pairs, want %d", name, algo, len(got), len(want))
			}
			for _, workers := range []int{1, 2, 4} {
				got, stats := p.RunParallel(context.Background(), workers)
				if !reflect.DeepEqual(canonPairs(got), want) {
					t.Errorf("%s/%v parallel w=%d: %d pairs, want %d", name, algo, workers, len(got), len(want))
				}
				if stats.Pairs != int64(len(got)) {
					t.Errorf("%s/%v: stats.Pairs=%d, len=%d", name, algo, stats.Pairs, len(got))
				}
			}
			p.Close()
		}
	}
}

// TestParallelJoinBinaryConformance checks the binary (two-input) variants.
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
	for _, algo := range joinAlgos {
		p := join.Planner{}.PlanWith(algo, as, bs, join.Options{Eps: eps})
		got, _ := p.RunParallel(context.Background(), 4)
		if !reflect.DeepEqual(canonPairs(got), want) {
			t.Errorf("%v: %d pairs, want %d", algo, len(got), len(want))
		}
		p.Close()
	}
}

// TestParallelJoinPlannerAuto runs the planner-picked plan end to end.
func TestParallelJoinPlannerAuto(t *testing.T) {
	items := joinItems(800, 15, geom.Vec3{})
	eps := 0.5
	want := canonPairs(join.SelfNestedLoop(items, join.Options{Eps: eps}))
	p := join.Planner{}.PlanSelf(items, join.Options{Eps: eps})
	defer p.Close()
	got, stats := p.RunParallel(context.Background(), 4)
	if !reflect.DeepEqual(canonPairs(got), want) {
		t.Fatalf("auto plan (%v): %d pairs, want %d", p.Algo(), len(got), len(want))
	}
	if stats.Algo != p.Algo() {
		t.Fatalf("stats algo %v != plan algo %v", stats.Algo, p.Algo())
	}
}

// TestParallelJoinCountersMatchSequential verifies the per-worker counter
// fold: the plan's counters must accumulate the same comparison totals
// whether tasks run sequentially or tiled over workers.
func TestParallelJoinCountersMatchSequential(t *testing.T) {
	items := joinItems(500, 16, geom.Vec3{})
	eps := 0.5
	var seqC instrument.Counters
	p1 := join.Planner{}.PlanSelfWith(join.AlgoGrid, items, join.Options{Eps: eps, Counters: &seqC})
	p1.Run()
	p1.Close()
	seqComparisons := seqC.Comparisons()

	var parC instrument.Counters
	p2 := join.Planner{}.PlanSelfWith(join.AlgoGrid, items, join.Options{Eps: eps, Counters: &parC})
	_, stats := p2.RunParallel(context.Background(), 4)
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
	p := join.Planner{}.PlanSelfWith(join.AlgoTOUCH, items, join.Options{Eps: eps})
	defer p.Close()
	want := canonPairs(p.Run())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := p.RunParallel(context.Background(), 2)
			if !reflect.DeepEqual(canonPairs(got), want) {
				t.Errorf("concurrent run diverged: %d pairs, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}

func benchmarkSelfJoin(b *testing.B, algo join.Algorithm, workers int) {
	items := clusteredJoinItems(20000, 21)
	opts := join.Options{Eps: 0.25}
	p := join.Planner{}.PlanSelfWith(algo, items, opts)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers <= 1 {
			p.Run()
		} else {
			p.RunParallel(context.Background(), workers)
		}
	}
}

func BenchmarkSelfGridJoinSequential(b *testing.B) { benchmarkSelfJoin(b, join.AlgoGrid, 1) }
func BenchmarkSelfGridJoinParallel4(b *testing.B)  { benchmarkSelfJoin(b, join.AlgoGrid, 4) }
func BenchmarkSelfTOUCHJoinSequential(b *testing.B) {
	benchmarkSelfJoin(b, join.AlgoTOUCH, 1)
}
func BenchmarkSelfTOUCHJoinParallel4(b *testing.B) { benchmarkSelfJoin(b, join.AlgoTOUCH, 4) }

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
		p := join.Planner{}.PlanSelfWith(join.AlgoGrid, items, join.Options{Eps: eps, Counters: &c})
		out, _ := p.RunParallel(context.Background(), 0)
		pairs = len(out)
		p.Close()
	}
	b.ReportMetric(float64(c.Comparisons())/float64(b.N)/float64(max(pairs, 1)), "comparisons/pair")
}
