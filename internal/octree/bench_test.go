package octree

// Benchmarks of the octree's range query, pointer and frozen Compact side by
// side.

import (
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

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

func BenchmarkRangeQueryPointer(b *testing.B) {
	items, u := uniformBenchItems(50000)
	t := New(Config{Universe: u})
	t.BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Search(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}

func BenchmarkRangeVisitCompact(b *testing.B) {
	items, u := uniformBenchItems(50000)
	c := FreezeItems(items, Config{Universe: u})
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RangeVisit(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}
