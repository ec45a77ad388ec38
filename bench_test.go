package spatialsim

// Benchmarks regenerating every figure and in-text experiment of the paper,
// E1-E9 and the ablations (the internal/experiments package doc indexes
// them: experiment, driver, spatialbench -exp name, paper figure or
// section). They wrap the drivers at a benchmark-friendly scale, plus the
// per-algorithm, per-strategy and per-method runs E6, E7 and E9 compare.
// Micro-benchmarks of single index operations live next to their package;
// the serving stack is timed layer by layer by the bench/ harness.

import (
	"testing"

	"spatialsim/internal/crtree"
	"spatialsim/internal/datagen"
	"spatialsim/internal/experiments"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/join/survey"
	"spatialsim/internal/mesh"
	"spatialsim/internal/moving"
	"spatialsim/internal/rtree"
)

// benchScale keeps each driver invocation in the tens of milliseconds so the
// full -bench=. run stays manageable; pass -elements to cmd/spatialbench for
// larger runs.
func benchScale() experiments.Scale {
	return experiments.Scale{Elements: 20000, Queries: 50, Selectivity: 5e-5, Seed: 1}
}

// --- E1: Figure 2 — R-Tree on disk vs in memory -----------------------------

func BenchmarkFigure2_DiskVsMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchScale())
		if r.DiskReadingPct < r.MemoryReadingPct {
			b.Fatal("unexpected breakdown shape")
		}
	}
}

// --- E2: Figure 3 — in-memory R-Tree breakdown ------------------------------

func BenchmarkFigure3_MemoryBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(benchScale())
	}
}

// --- E3: Section 4.1 — update vs rebuild under massive minimal movement -----

func BenchmarkUpdateVsRebuild_Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.UpdateVsRebuild(benchScale(), []float64{0.1, 0.4, 1.0})
	}
}

// --- E4: Figure 4 — unnecessary intersection tests --------------------------

func BenchmarkFigure4_UnnecessaryTests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure4(benchScale())
	}
}

// --- E5: in-memory index comparison + LSH -----------------------------------

func BenchmarkIndexComparison_AllFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.IndexComparison(benchScale())
	}
}

func BenchmarkIndexComparison_LSHRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MeasureLSHRecall(benchScale())
	}
}

// --- E6: spatial join comparison ---------------------------------------------

func benchJoinItems(n int) []index.Item {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(n/400+1, 400, 3))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items
}

func BenchmarkJoin_NestedLoop(b *testing.B) {
	items := benchJoinItems(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfNestedLoop(items, join.Options{Eps: 0.003})
	}
}

func BenchmarkJoin_PlaneSweep(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		survey.SelfPlaneSweep(items, join.Options{Eps: 0.003})
	}
}

func BenchmarkJoin_Grid(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfGridJoin(items, join.Options{Eps: 0.003}, join.GridJoinConfig{})
	}
}

func BenchmarkJoin_RTreeSync(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		survey.SelfRTreeJoin(items, join.Options{Eps: 0.003})
	}
}

func BenchmarkJoin_TOUCH(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		survey.SelfTOUCHJoin(items, join.Options{Eps: 0.003})
	}
}

// --- E7: moving-object update strategies -------------------------------------

func BenchmarkMoving_Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MovingComparison(benchScale(), 2, 20)
	}
}

func benchMovingWorkload(b *testing.B, ix index.Index) {
	b.Helper()
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(25, 400, 5))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	if loader, ok := ix.(index.BulkLoader); ok {
		loader.BulkLoad(items)
	} else {
		for _, it := range items {
			ix.Insert(it.ID, it.Box)
		}
	}
	model := datagen.NewPlasticityModel(6)
	queries := datagen.GenerateDataCenteredQueries(d, 20, 5e-4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := make([]geom.AABB, d.Len())
		for j := range d.Elements {
			old[j] = d.Elements[j].Box
		}
		model.Step(d)
		for j := range d.Elements {
			ix.Update(d.Elements[j].ID, old[j], d.Elements[j].Box)
		}
		if tw, ok := ix.(*moving.Throwaway); ok {
			tw.Rebuild()
		}
		for _, q := range queries {
			ix.Search(q, func(index.Item) bool { return true })
		}
	}
}

func BenchmarkMoving_RTreeInPlace(b *testing.B) {
	benchMovingWorkload(b, rtree.NewDefault())
}

func BenchmarkMoving_RTreeThrowaway(b *testing.B) {
	benchMovingWorkload(b, moving.NewThrowaway(rtree.NewDefault()))
}

func BenchmarkMoving_RTreeLazy(b *testing.B) {
	benchMovingWorkload(b, moving.NewLazy(rtree.NewDefault(), 0.01))
}

func BenchmarkMoving_RTreeBuffered(b *testing.B) {
	benchMovingWorkload(b, moving.NewBuffered(rtree.NewDefault(), 4096))
}

func BenchmarkMoving_GridInPlace(b *testing.B) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(6.583, 6.583, 6.583))
	benchMovingWorkload(b, grid.New(grid.Config{Universe: u, CellsPerDim: 40}))
}

// --- E8: full simulation step ------------------------------------------------

func BenchmarkSimStep_AllIndexes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.SimStep(benchScale(), 1, 40)
	}
}

// --- E9: mesh / connectivity-driven queries ----------------------------------

func BenchmarkMesh_Experiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Mesh(experiments.Scale{Elements: 8000, Queries: 20, Seed: 2}, 1, 20)
	}
}

func benchMeshSetup() (*mesh.Mesh, []geom.AABB) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(10, 10, 10))
	m := mesh.GenerateLattice(mesh.LatticeConfig{Nx: 20, Ny: 20, Nz: 20, Universe: u, Jitter: 0.2, Seed: 3})
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 50, Selectivity: 2e-3, Universe: u, Seed: 4})
	return m, queries
}

func BenchmarkMesh_DLSRange(b *testing.B) {
	m, queries := benchMeshSetup()
	d := mesh.NewDLS(m, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			d.Range(q)
		}
	}
}

func BenchmarkMesh_OctopusRange(b *testing.B) {
	m, queries := benchMeshSetup()
	o := mesh.NewOctopus(m, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			o.Range(q)
		}
	}
}

func BenchmarkMesh_RTreeRebuildAndRange(b *testing.B) {
	m, queries := benchMeshSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]index.Item, m.Len())
		for j := range m.Vertices {
			items[j] = index.Item{ID: m.Vertices[j].ID, Box: geom.PointAABB(m.Vertices[j].Pos)}
		}
		rt := rtree.NewDefault()
		rt.BulkLoad(items)
		for _, q := range queries {
			index.SearchIDs(rt, q)
		}
	}
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationGridResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationGridResolution(benchScale(), []int{8, 32})
	}
}

func BenchmarkAblationAdvisor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationAdvisor(benchScale(), 3, 40)
	}
}

func BenchmarkAblationCRTreeNodeSize(b *testing.B) {
	items := benchJoinItems(20000)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
		N: 50, Selectivity: 5e-5,
		Universe: geom.NewAABB(geom.V(0, 0, 0), geom.V(6.583, 6.583, 6.583)), Seed: 8,
	})
	for _, fanout := range []int{7, 14, 28, 56} {
		b.Run(byteLabel(fanout), func(b *testing.B) {
			t := crtree.New(crtree.Config{Fanout: fanout})
			t.BulkLoad(items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					t.Search(q, func(index.Item) bool { return true })
				}
			}
		})
	}
}

func byteLabel(fanout int) string {
	// Each quantized CR-Tree entry is 10 bytes (6 coordinate bytes + ref);
	// report the approximate node footprint so the ablation reads as the
	// cache-line sweep the paper discusses.
	switch {
	case fanout <= 7:
		return "node~1cacheline"
	case fanout <= 14:
		return "node~2cachelines"
	case fanout <= 28:
		return "node~4cachelines"
	default:
		return "node~8cachelines"
	}
}
