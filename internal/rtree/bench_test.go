package rtree

// Benchmarks of the pointer R-Tree's build, update and query paths. The
// frozen Compact's range and kNN queries are timed by the bench/ harness's
// rtree.* layer rows (bench/run.sh -trace 1), not here.

import (
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// neuronBenchItems is the paper's neuron dataset at about n segments.
func neuronBenchItems(n int) ([]index.Item, geom.AABB) {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(n/400+1, 400, 9))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items, d.Universe
}

// uniformBenchItems is a spatially homogeneous dataset, so layout effects are
// not masked by clustering.
func uniformBenchItems(n int) ([]index.Item, geom.AABB) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	d := datagen.GenerateUniform(datagen.UniformConfig{N: n, Universe: u, Seed: 31})
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items, u
}

func BenchmarkBulkLoad(b *testing.B) {
	items, _ := neuronBenchItems(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDefault().BulkLoad(items)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	items, u := neuronBenchItems(50000)
	t := NewDefault()
	t.BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Search(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}

func BenchmarkUpdate(b *testing.B) {
	items, _ := neuronBenchItems(50000)
	t := NewDefault()
	t.BulkLoad(items)
	delta := geom.V(0.001, 0.001, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &items[i%len(items)]
		newBox := it.Box.Translate(delta)
		t.Update(it.ID, it.Box, newBox)
		it.Box = newBox
	}
}

func BenchmarkRangeVisitPointer(b *testing.B) {
	items, u := uniformBenchItems(50000)
	t := NewDefault()
	t.BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RangeVisit(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}

func BenchmarkKNNPointer(b *testing.B) {
	items, u := uniformBenchItems(50000)
	t := NewDefault()
	t.BulkLoad(items)
	points := datagen.GenerateKNNQueries(100, u, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.KNN(points[i%len(points)], 8)
	}
}
