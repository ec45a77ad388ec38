package sim

import (
	"testing"

	"spatialsim/internal/core"
	"spatialsim/internal/crtree"
	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/moving"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

func smallNeuronDataset(seed int64) *datagen.Dataset {
	return datagen.GenerateNeurons(datagen.DefaultNeuronConfig(10, 200, seed))
}

func TestSimulationStepWithRTree(t *testing.T) {
	d := smallNeuronDataset(1)
	sim := New(d, datagen.NewPlasticityModel(2), rtree.NewDefault(), Config{
		QueriesPerStep: 20, QuerySelectivity: 1e-3, KNNPerStep: 5, K: 4, Seed: 3,
	})
	if sim.Index.Len() != d.Len() {
		t.Fatalf("index not loaded: %d", sim.Index.Len())
	}
	st := sim.Step()
	if st.Step != 1 {
		t.Fatalf("Step = %d", st.Step)
	}
	if st.Movement.Moved != d.Len() {
		t.Fatalf("movement moved %d of %d", st.Movement.Moved, d.Len())
	}
	if st.UpdateTime <= 0 || st.QueryTime <= 0 {
		t.Fatal("phase timings not recorded")
	}
	if st.RangeResults == 0 {
		t.Fatal("no range results on a dense neuron dataset")
	}
	if st.KNNResults != 5*4 {
		t.Fatalf("KNN results = %d, want 20", st.KNNResults)
	}
	if st.TotalTime() < st.UpdateTime {
		t.Fatal("TotalTime inconsistent")
	}
}

func TestSimulationIndexStaysConsistent(t *testing.T) {
	d := smallNeuronDataset(4)
	ix := grid.New(grid.Config{Universe: d.Universe, CellsPerDim: 12})
	sim := New(d, datagen.NewPlasticityModel(5), ix, Config{QueriesPerStep: 5, Seed: 6})
	for i := 0; i < 3; i++ {
		sim.Step()
	}
	// After several steps, the index must agree with a brute-force scan of
	// the (mutated) dataset.
	query := geom.AABBFromCenter(d.Universe.Center(), d.Universe.Size().Scale(0.15))
	got := index.SearchIDs(ix, query)
	want := 0
	for i := range d.Elements {
		if query.Intersects(d.Elements[i].Box) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("index has %d results, brute force %d", len(got), want)
	}
	if ix.Len() != d.Len() {
		t.Fatalf("index Len = %d, dataset %d", ix.Len(), d.Len())
	}
}

func TestSimulationRunAggregates(t *testing.T) {
	d := smallNeuronDataset(7)
	sim := New(d, datagen.NewPlasticityModel(8), core.New(core.Config{Universe: d.Universe}), Config{
		QueriesPerStep: 10, KNNPerStep: 2, JoinEvery: 2, JoinEps: 0.02, Seed: 9,
	})
	run := sim.Run(4)
	if len(run.Steps) != 4 {
		t.Fatalf("Steps = %d", len(run.Steps))
	}
	if run.TotalUpdate <= 0 || run.TotalQuery <= 0 {
		t.Fatal("aggregate timings missing")
	}
	// Join ran on steps 2 and 4 only.
	if run.Steps[0].JoinTime != 0 || run.Steps[1].JoinTime == 0 || run.Steps[3].JoinTime == 0 {
		t.Fatal("join scheduling wrong")
	}
	if run.Total() != run.TotalUpdate+run.TotalQuery+run.TotalJoin {
		t.Fatal("Total inconsistent")
	}
	if run.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSimulationWithThrowawayAndBatchIndexes(t *testing.T) {
	// The harness must work with the rebuild-per-step strategy and with the
	// batch-updating SimIndex, producing consistent query results.
	d1 := smallNeuronDataset(10)
	d2 := d1.Clone()

	tw := moving.NewThrowaway(rtree.NewDefault())
	si := core.New(core.Config{Universe: d1.Universe, ExpectedQueriesPerStep: 50})

	simA := New(d1, datagen.NewPlasticityModel(11), tw, Config{QueriesPerStep: 10, Seed: 12})
	simB := New(d2, datagen.NewPlasticityModel(11), si, Config{QueriesPerStep: 10, Seed: 12})

	stA := simA.Step()
	stB := simB.Step()
	// Both simulations use the same movement seed, so datasets stay identical
	// and the same monitoring queries produce identical result counts.
	if stA.RangeResults != stB.RangeResults {
		t.Fatalf("range results differ: throwaway %d vs simindex %d", stA.RangeResults, stB.RangeResults)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.QuerySelectivity != 1e-4 || c.K != 8 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestParallelWorkersMatchSequential runs the same deterministic simulation
// once sequentially and once through the parallel query engine; per-step
// monitoring results must be identical.
func TestParallelWorkersMatchSequential(t *testing.T) {
	cfgSeq := Config{QueriesPerStep: 20, QuerySelectivity: 1e-3, KNNPerStep: 5, K: 4, Seed: 3}
	cfgPar := cfgSeq
	cfgPar.Workers = 4
	seq := New(smallNeuronDataset(1), datagen.NewPlasticityModel(2), rtree.NewDefault(), cfgSeq)
	par := New(smallNeuronDataset(1), datagen.NewPlasticityModel(2), rtree.NewDefault(), cfgPar)
	for step := 0; step < 3; step++ {
		ss, ps := seq.Step(), par.Step()
		if ss.RangeResults != ps.RangeResults {
			t.Fatalf("step %d: range results %d (seq) vs %d (parallel)", step, ss.RangeResults, ps.RangeResults)
		}
		if ss.KNNResults != ps.KNNResults {
			t.Fatalf("step %d: kNN results %d (seq) vs %d (parallel)", step, ss.KNNResults, ps.KNNResults)
		}
	}
}

// families returns one fresh instance of every index family the harness
// must drive identically on the worker pool and sequentially.
func families(u geom.AABB) []index.Index {
	return []index.Index{
		rtree.NewDefault(),
		crtree.New(crtree.Config{}),
		grid.New(grid.Config{Universe: u, CellsPerDim: 12}),
		grid.NewMulti(grid.MultiConfig{Universe: u, CoarsestCells: 4, Levels: 4}),
		octree.New(octree.Config{Universe: u, LeafCapacity: 10, MaxDepth: 7}),
		octree.New(octree.Config{Universe: u, LeafCapacity: 10, MaxDepth: 7, Loose: true}),
		core.New(core.Config{Universe: u, CellsPerDim: 12}),
		index.NewLinearScan(),
		moving.NewThrowaway(rtree.NewDefault()),
		moving.NewLazy(rtree.NewDefault(), 0.25),
		moving.NewBuffered(rtree.NewDefault(), 64),
	}
}

// monitorMatchesSequential runs the same simulation twice per family, once
// with Workers: 1 and once on 8 workers, and fails unless every step's
// monitoring counts agree.
func monitorMatchesSequential(t *testing.T, cfg Config) {
	d := smallNeuronDataset(21)
	seqs, pars := families(d.Universe), families(d.Universe)
	for fi := range seqs {
		fi := fi
		t.Run(seqs[fi].Name(), func(t *testing.T) {
			seqCfg, parCfg := cfg, cfg
			seqCfg.Workers, parCfg.Workers = 1, 8
			seq := New(d.Clone(), datagen.NewPlasticityModel(22), seqs[fi], seqCfg)
			par := New(d.Clone(), datagen.NewPlasticityModel(22), pars[fi], parCfg)
			for step := 0; step < 2; step++ {
				ss, ps := seq.Step(), par.Step()
				if ss.RangeResults+ss.KNNResults == 0 {
					t.Fatalf("step %d: no monitoring results; the workload is too sparse to compare", step)
				}
				if ss.RangeResults != ps.RangeResults || ss.KNNResults != ps.KNNResults {
					t.Fatalf("step %d: range/kNN results %d/%d with 8 workers, %d/%d with 1",
						step, ps.RangeResults, ps.KNNResults, ss.RangeResults, ss.KNNResults)
				}
			}
		})
	}
}

// TestBatchSearchMatchesSequential: the parallel count of a step's range
// queries equals the sequential count, for every family.
func TestBatchSearchMatchesSequential(t *testing.T) {
	monitorMatchesSequential(t, Config{QueriesPerStep: 150, QuerySelectivity: 1e-3, Seed: 7})
}

// TestBatchKNNMatchesSequential: the parallel count of a step's kNN results
// equals the sequential count, for every family.
func TestBatchKNNMatchesSequential(t *testing.T) {
	monitorMatchesSequential(t, Config{KNNPerStep: 60, K: 5, Seed: 8})
}
