package survey

import (
	"math/rand"
	"reflect"
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/join"
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

func clusteredItems(n int, seed int64) []index.Item {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	d := datagen.GenerateClustered(datagen.ClusteredConfig{N: n, Clusters: 10, Universe: u, Seed: seed})
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items
}

type binaryJoin func(as, bs []index.Item, opts join.Options) []join.Pair

type selfJoin func(items []index.Item, opts join.Options) []join.Pair

var binaryJoins = map[string]binaryJoin{"sweep": PlaneSweep, "rtree-sync": RTreeJoin, "touch": TOUCHJoin}

var selfJoins = map[string]selfJoin{"sweep": SelfPlaneSweep, "rtree-sync": SelfRTreeJoin, "touch": SelfTOUCHJoin}

// TestBinaryJoinsAgreeWithNestedLoop: every survey join returns the nested
// loop's pairs, in canonical order, at eps 0 (intersection) and beyond.
func TestBinaryJoinsAgreeWithNestedLoop(t *testing.T) {
	as := randomItems(400, 1, geom.Vec3{})
	bs := randomItems(400, 2, geom.V(0.5, 0.5, 0.5))
	for i := range bs {
		bs[i].ID += 10000 // disjoint id spaces
	}
	for _, eps := range []float64{0, 0.5, 2.0} {
		opts := join.Options{Eps: eps}
		want := join.DedupPairs(join.NestedLoop(as, bs, opts))
		if len(want) == 0 {
			t.Fatalf("eps=%v: nested loop found no pairs; test data too sparse", eps)
		}
		for name, run := range binaryJoins {
			if got := run(as, bs, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: %s %d pairs, want %d", eps, name, len(got), len(want))
			}
		}
	}
}

func TestSelfJoinsAgreeWithNestedLoop(t *testing.T) {
	items := randomItems(500, 3, geom.Vec3{})
	for _, eps := range []float64{0, 1.0} {
		opts := join.Options{Eps: eps}
		want := join.DedupPairs(join.SelfNestedLoop(items, opts))
		if len(want) == 0 {
			t.Fatalf("eps=%v: no self-join pairs; test data too sparse", eps)
		}
		for name, run := range selfJoins {
			if got := run(items, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: self %s %d pairs, want %d", eps, name, len(got), len(want))
			}
		}
	}
}

// TestJoinComparisonCountsFavorPartitioning: TOUCH's data-oriented
// partitioning compares far fewer pairs than the nested loop on clustered
// data, and every survey join charges a comparison per candidate it tests.
func TestJoinComparisonCountsFavorPartitioning(t *testing.T) {
	items := clusteredItems(2000, 4)
	eps := 0.2
	var nl instrument.Counters
	want := join.DedupPairs(join.SelfNestedLoop(items, join.Options{Eps: eps, Counters: &nl}))
	comparisons := map[string]int64{}
	for name, run := range selfJoins {
		var c instrument.Counters
		if got := run(items, join.Options{Eps: eps, Counters: &c}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
		}
		if c.Comparisons() < int64(len(want)) {
			t.Fatalf("%s charged %d comparisons for %d pairs", name, c.Comparisons(), len(want))
		}
		comparisons[name] = c.Comparisons()
	}
	if comparisons["touch"] >= nl.Comparisons()/4 {
		t.Fatalf("TOUCH comparisons %d not much lower than nested loop %d", comparisons["touch"], nl.Comparisons())
	}
}

func TestJoinEdgeCases(t *testing.T) {
	items := randomItems(10, 6, geom.Vec3{})
	for name, run := range binaryJoins {
		if run(nil, items, join.Options{}) != nil || run(items, nil, join.Options{}) != nil {
			t.Errorf("%s with an empty input returned pairs", name)
		}
	}
	for name, run := range selfJoins {
		if run(nil, join.Options{}) != nil || run(items[:1], join.Options{Eps: 100}) != nil {
			t.Errorf("self %s of fewer than two elements returned pairs", name)
		}
	}
}

// TestTOUCHBuildsOverSmallerSide: a skewed binary TOUCH join builds its
// hierarchy over the small input and probes with the large one, and must
// keep the (as, bs) pair orientation whichever side that is.
func TestTOUCHBuildsOverSmallerSide(t *testing.T) {
	big := randomItems(4000, 41, geom.Vec3{})
	small := randomItems(120, 42, geom.V(0.2, 0.2, 0.2))
	for i := range small {
		small[i].ID += 1000000
	}
	opts := join.Options{Eps: 0.8}
	want := join.DedupPairs(join.NestedLoop(big, small, opts))
	if len(want) == 0 {
		t.Fatal("ground truth empty")
	}

	// bs smaller: build and probe are swapped internally.
	got := TOUCHJoin(big, small, opts)
	for _, pr := range got {
		if pr.A >= 1000000 || pr.B < 1000000 {
			t.Fatalf("pair %+v lost the (as, bs) orientation", pr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("swapped TOUCH: %d pairs, want %d", len(got), len(want))
	}

	// as smaller: no swap, same pairs the other way round.
	rev := TOUCHJoin(small, big, opts)
	for _, pr := range rev {
		if pr.A < 1000000 || pr.B >= 1000000 {
			t.Fatalf("pair %+v lost the (as, bs) orientation", pr)
		}
	}
	if len(rev) != len(got) {
		t.Fatalf("orientation-reversed join found %d pairs, want %d", len(rev), len(got))
	}
}

func BenchmarkSelfTOUCHJoin(b *testing.B) {
	items := clusteredItems(20000, 21)
	opts := join.Options{Eps: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelfTOUCHJoin(items, opts)
	}
}
