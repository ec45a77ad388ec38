package crtree

import (
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/index"
)

func BenchmarkRangeQuery(b *testing.B) {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(50000/400+1, 400, 9))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	t := New(Config{})
	t.BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: d.Universe, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Search(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}
