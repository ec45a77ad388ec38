package exec_test

// Benchmarks of the batch engine over a 100k-segment neuron R-Tree: the
// sequential and parallel sides of each pair run identical work.

import (
	"sync"
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/exec"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
)

var batchBench struct {
	once    sync.Once
	tree    *rtree.Tree
	queries []geom.AABB
	points  []geom.Vec3
}

func batchBenchSetup() (*rtree.Tree, []geom.AABB, []geom.Vec3) {
	batchBench.once.Do(func() {
		d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(100000/400+1, 400, 9))
		items := make([]index.Item, d.Len())
		for i := range d.Elements {
			items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
		}
		batchBench.tree = rtree.NewDefault()
		batchBench.tree.BulkLoad(items)
		batchBench.queries = datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
			N: 1000, Selectivity: 5e-5, Universe: d.Universe, Seed: 21,
		})
		batchBench.points = datagen.GenerateKNNQueries(500, d.Universe, 22)
	})
	return batchBench.tree, batchBench.queries, batchBench.points
}

func BenchmarkBatchKNN_Sequential(b *testing.B) {
	ix, _, points := batchBenchSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			ix.KNN(p, 8)
		}
	}
}

func BenchmarkBatchKNN_Workers8(b *testing.B) {
	ix, _, points := batchBenchSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.BatchKNN(ix, points, 8, exec.Options{Workers: 8})
	}
}

func BenchmarkBatchRangeVisit_CompactWorkers8(b *testing.B) {
	ix, queries, _ := batchBenchSetup()
	frozen := ix.Freeze()
	arena := &exec.Arena{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.BatchRangeVisitArena(frozen, queries, exec.Options{Workers: 8}, arena)
	}
}
