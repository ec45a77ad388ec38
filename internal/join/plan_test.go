package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialsim/internal/geom"
)

// TestPlanTasksPartitionWork asserts that running tasks individually emits
// every pair exactly once — the reference-point technique makes task outputs
// globally disjoint, so no dedup pass is needed between tasks — at the
// data-sized resolution and at fixed ones.
func TestPlanTasksPartitionWork(t *testing.T) {
	items := randomItems(800, 35, geom.Vec3{})
	opts := Options{Eps: 0.8}
	want := canon(SelfNestedLoop(items, opts))
	for _, cells := range []int{0, 1, 7} {
		p := Planner{Grid: GridJoinConfig{CellsPerDim: cells}}.PlanSelf(items, opts)
		var raw []Pair
		for task := 0; task < p.Tasks(); task++ {
			raw = p.RunTask(task, nil, raw)
		}
		SortPairs(raw)
		for i := 1; i < len(raw); i++ {
			if raw[i] == raw[i-1] {
				t.Fatalf("cells=%d emitted duplicate pair %+v", cells, raw[i])
			}
		}
		if !reflect.DeepEqual(append([]Pair(nil), raw...), want) {
			t.Fatalf("cells=%d raw task output: %d pairs, want %d", cells, len(raw), len(want))
		}
		p.Close()
	}
}

// TestPlanTaskGranularity: plans over non-trivial inputs must decompose into
// enough tasks to keep a worker pool busy.
func TestPlanTaskGranularity(t *testing.T) {
	items := randomItems(5000, 36, geom.Vec3{})
	p := Planner{}.PlanSelf(items, Options{Eps: 0.5})
	if p.Tasks() < 8 {
		t.Errorf("only %d tasks for 5000 elements", p.Tasks())
	}
	p.Close()
}

// TestPlanEmptyInputs: degenerate plans have zero tasks and empty results.
func TestPlanEmptyInputs(t *testing.T) {
	items := randomItems(5, 37, geom.Vec3{})
	for _, p := range []*Plan{
		Planner{}.Plan(nil, items, Options{}),
		Planner{}.Plan(items, nil, Options{}),
		Planner{}.PlanSelf(items[:1], Options{Eps: 100}),
		Planner{}.PlanSelf(nil, Options{}),
	} {
		if p.Tasks() != 0 || p.Cells() != 0 || len(p.Run()) != 0 {
			t.Errorf("degenerate plan: %d tasks, %d cells, %d pairs", p.Tasks(), p.Cells(), len(p.Run()))
		}
		p.Close()
	}
}

// TestPartitionerBufferReuse: repeated grid joins must reuse the pooled
// cell-list buffers and keep producing identical results.
func TestPartitionerBufferReuse(t *testing.T) {
	items := randomItems(600, 38, geom.Vec3{})
	opts := Options{Eps: 0.6}
	want := SelfGridJoin(items, opts, GridJoinConfig{})
	for i := 0; i < 5; i++ {
		if got := SelfGridJoin(items, opts, GridJoinConfig{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: grid join diverged after buffer reuse", i)
		}
	}
	// Different resolution through the same pool must not leak state.
	as := randomItems(300, 39, geom.Vec3{})
	bs := randomItems(300, 40, geom.V(0.2, 0.2, 0.2))
	for i := range bs {
		bs[i].ID += 50000
	}
	wantAB := GridJoin(as, bs, opts, GridJoinConfig{CellsPerDim: 6})
	if got := GridJoin(as, bs, opts, GridJoinConfig{CellsPerDim: 6}); !reflect.DeepEqual(got, wantAB) {
		t.Fatal("binary grid join diverged after buffer reuse")
	}
}

// TestGather covers the gather: disjoint runs come out in canonical order,
// including IDs spanning the whole int64 range (bucket shift) and heavy
// buckets that take the library sort.
func TestGather(t *testing.T) {
	runs := [][]Pair{
		{{5, 6}, {1, 2}, {3, 4}},
		{{2, 3}},
		nil,
		{{0, 9}, {1, 1}},
	}
	got := Gather(runs, nil)
	want := []Pair{{0, 9}, {1, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Gather = %v, want %v", got, want)
	}
	if out := Gather(nil, nil); len(out) != 0 {
		t.Fatal("empty gather returned pairs")
	}
	wide := [][]Pair{{{math.MaxInt64, 1}, {math.MinInt64, 2}, {0, 3}}, {{math.MinInt64, 1}}}
	want = []Pair{{math.MinInt64, 1}, {math.MinInt64, 2}, {0, 3}, {math.MaxInt64, 1}}
	if got := Gather(wide, make([]Pair, 0, 1)); !reflect.DeepEqual(got, want) {
		t.Fatalf("full-range gather = %v, want %v", got, want)
	}
	r := rand.New(rand.NewSource(43))
	var heavy []Pair
	for i := 0; i < 500; i++ {
		heavy = append(heavy, Pair{A: int64(r.Intn(3)), B: int64(i)})
	}
	want = append([]Pair(nil), heavy...)
	SortPairs(want)
	if got := Gather([][]Pair{heavy[:100], heavy[100:]}, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("heavy-bucket gather out of order")
	}
}
