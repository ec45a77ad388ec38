package join

import (
	"math/rand"
	"reflect"
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
)

func randomItems(n int, seed int64, offset geom.Vec3) []index.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*50, r.Float64()*50, r.Float64()*50).Add(offset)
		half := geom.V(r.Float64()*0.5, r.Float64()*0.5, r.Float64()*0.5)
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

// canon produces a canonical, deduplicated, sorted pair set for comparison.
func canon(pairs []Pair) []Pair {
	c := append([]Pair(nil), pairs...)
	return DedupPairs(c)
}

// canonUnordered canonicalizes pairs ignoring (A,B) order, for comparing
// binary joins whose algorithms may report either orientation.
func canonUnordered(pairs []Pair) []Pair {
	c := make([]Pair, len(pairs))
	for i, p := range pairs {
		c[i] = orderPair(p.A, p.B)
	}
	return DedupPairs(c)
}

func TestBinaryJoinsAgreeWithNestedLoop(t *testing.T) {
	as := randomItems(400, 1, geom.Vec3{})
	bs := randomItems(400, 2, geom.V(0.5, 0.5, 0.5))
	for i := range bs {
		bs[i].ID += 10000 // disjoint id spaces
	}
	for _, eps := range []float64{0, 0.5, 2.0} {
		opts := Options{Eps: eps}
		want := canonUnordered(NestedLoop(as, bs, opts))
		if len(want) == 0 {
			t.Fatalf("eps=%v: nested loop found no pairs; test data too sparse", eps)
		}
		if got := canonUnordered(GridJoin(as, bs, opts, GridJoinConfig{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%v: grid join %d pairs, want %d", eps, len(got), len(want))
		}
	}
}

func TestSelfJoinsAgreeWithNestedLoop(t *testing.T) {
	items := randomItems(500, 3, geom.Vec3{})
	for _, eps := range []float64{0, 1.0} {
		opts := Options{Eps: eps}
		want := canon(SelfNestedLoop(items, opts))
		if len(want) == 0 {
			t.Fatalf("eps=%v: no self-join pairs; test data too sparse", eps)
		}
		if got := canon(SelfGridJoin(items, opts, GridJoinConfig{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%v: self grid join %d pairs, want %d", eps, len(got), len(want))
		}
	}
}

func TestJoinComparisonCountsFavorPartitioning(t *testing.T) {
	// The whole point of the grid join: far fewer comparisons than the
	// nested loop on clustered data.
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	d := datagen.GenerateClustered(datagen.ClusteredConfig{N: 2000, Clusters: 10, Universe: u, Seed: 4})
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	eps := 0.2

	var nl, gr instrument.Counters
	wantPairs := canon(SelfNestedLoop(items, Options{Eps: eps, Counters: &nl}))
	gridPairs := canon(SelfGridJoin(items, Options{Eps: eps, Counters: &gr}, GridJoinConfig{}))
	if !reflect.DeepEqual(gridPairs, wantPairs) {
		t.Fatal("join results disagree")
	}
	if gr.Comparisons() >= nl.Comparisons()/4 {
		t.Fatalf("grid join comparisons %d not much lower than nested loop %d", gr.Comparisons(), nl.Comparisons())
	}
}

func TestJoinWithRefinement(t *testing.T) {
	// Synapse-style join: cylinders within a threshold of each other; the box
	// filter admits pairs the exact test rejects.
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(20, 20, 20))
	d := datagen.GenerateNeurons(datagen.NeuronConfig{
		Neurons: 5, SegmentsPerNeuron: 100, Universe: u, SegmentLength: 0.5, SegmentRadius: 0.05, Seed: 5,
	})
	items := make([]index.Item, d.Len())
	shapes := make(map[int64]geom.Cylinder, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
		shapes[d.Elements[i].ID] = d.Elements[i].Shape
	}
	const synapseGap = 0.05
	refine := func(a, b index.Item) bool {
		return shapes[a.ID].WithinDistance(shapes[b.ID], synapseGap)
	}
	optsRefined := Options{Eps: synapseGap, Refine: refine}
	optsBoxOnly := Options{Eps: synapseGap}

	want := canon(SelfNestedLoop(items, optsRefined))
	got := canon(SelfGridJoin(items, optsRefined, GridJoinConfig{}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refined grid join %d pairs, want %d", len(got), len(want))
	}
	// The box-only join must be a superset of the refined join.
	boxOnly := canon(SelfGridJoin(items, optsBoxOnly, GridJoinConfig{}))
	if len(boxOnly) < len(want) {
		t.Fatalf("box filter (%d) smaller than refined result (%d)", len(boxOnly), len(want))
	}
}

func TestJoinEdgeCases(t *testing.T) {
	items := randomItems(10, 6, geom.Vec3{})
	empty := []index.Item{}
	if got := NestedLoop(empty, items, Options{}); len(got) != 0 {
		t.Error("nested loop with empty input returned pairs")
	}
	if got := GridJoin(empty, items, Options{}, GridJoinConfig{}); got != nil {
		t.Error("grid join with empty input returned pairs")
	}
	if got := GridJoin(items, empty, Options{}, GridJoinConfig{}); got != nil {
		t.Error("grid join with empty second input returned pairs")
	}
	if got := SelfGridJoin(empty, Options{}, GridJoinConfig{}); got != nil {
		t.Error("self grid join of empty set returned pairs")
	}
	// Single element self-join has no pairs.
	if got := SelfNestedLoop(items[:1], Options{Eps: 100}); len(got) != 0 {
		t.Error("single-element self join returned pairs")
	}
	// DedupPairs.
	p := []Pair{{2, 3}, {1, 2}, {2, 3}, {1, 2}}
	if got := DedupPairs(p); len(got) != 2 || got[0] != (Pair{1, 2}) || got[1] != (Pair{2, 3}) {
		t.Errorf("DedupPairs = %v", got)
	}
}

func TestGridJoinExplicitResolution(t *testing.T) {
	as := randomItems(200, 7, geom.Vec3{})
	bs := randomItems(200, 8, geom.Vec3{})
	for i := range bs {
		bs[i].ID += 10000
	}
	want := canonUnordered(NestedLoop(as, bs, Options{Eps: 1}))
	for _, cells := range []int{1, 2, 8, 32} {
		got := canonUnordered(GridJoin(as, bs, Options{Eps: 1}, GridJoinConfig{CellsPerDim: cells}))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cells=%d: grid join disagrees with nested loop", cells)
		}
	}
}
