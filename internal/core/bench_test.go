package core

// Benchmarks of SimIndex's build, range and kNN paths on the paper's neuron
// dataset.

import (
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

func neuronBenchItems(n int) ([]index.Item, geom.AABB) {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(n/400+1, 400, 9))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items, d.Universe
}

func BenchmarkBulkLoad(b *testing.B) {
	items, u := neuronBenchItems(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(Config{Universe: u}).BulkLoad(items)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	items, u := neuronBenchItems(50000)
	s := New(Config{Universe: u})
	s.BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}

func BenchmarkKNN(b *testing.B) {
	items, u := neuronBenchItems(50000)
	s := New(Config{Universe: u})
	s.BulkLoad(items)
	points := datagen.GenerateKNNQueries(100, u, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KNN(points[i%len(points)], 8)
	}
}
