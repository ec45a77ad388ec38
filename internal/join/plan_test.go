package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// TestPlannerPicksFromStats feeds the planner contrasting input statistics
// and checks that each regime gets the algorithm the paper's comparison
// motivates.
func TestPlannerPicksFromStats(t *testing.T) {
	pl := Planner{}
	cube := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	base := Stats{
		CardA: 50000, CardB: 50000,
		MBRA: cube, MBRB: cube,
		CoverageA: 0.2, CoverageB: 0.2,
		OverlapRatio: 1, Elongation: 1,
	}

	cases := []struct {
		name   string
		mutate func(Stats) Stats
		want   Algorithm
	}{
		{"tiny inputs -> nested loop", func(st Stats) Stats {
			st.CardA, st.CardB = 40, 40
			return st
		}, AlgoNestedLoop},
		{"disjoint MBRs -> synchronized rtree", func(st Stats) Stats {
			st.MBRB = geom.NewAABB(geom.V(1000, 0, 0), geom.V(1100, 100, 100))
			st.OverlapRatio = 0
			return st
		}, AlgoRTree},
		{"cardinality skew -> TOUCH", func(st Stats) Stats {
			st.CardA = 2000
			return st
		}, AlgoTOUCH},
		{"effectively 1D -> plane sweep", func(st Stats) Stats {
			st.Elongation = 40
			return st
		}, AlgoPlaneSweep},
		{"dense overlap -> TOUCH", func(st Stats) Stats {
			st.CoverageA, st.CoverageB = 5, 5
			return st
		}, AlgoTOUCH},
		{"uniform balanced -> grid", func(st Stats) Stats {
			return st
		}, AlgoGrid},
	}
	for _, tc := range cases {
		if got := pl.Pick(tc.mutate(base)); got != tc.want {
			t.Errorf("%s: picked %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestComputeStatsRegimes builds concrete datasets for the planner regimes
// and checks the derived statistics drive the expected picks end to end.
func TestComputeStatsRegimes(t *testing.T) {
	pl := Planner{}

	// Two far-apart clusters: overlap ratio near zero -> rtree.
	as := randomItems(500, 31, geom.Vec3{})
	bs := randomItems(500, 32, geom.V(5000, 0, 0))
	if st := ComputeStats(as, bs); st.OverlapRatio > 0.01 {
		t.Fatalf("disjoint inputs overlap ratio = %v", st.OverlapRatio)
	} else if got := pl.Pick(st); got != AlgoRTree {
		t.Fatalf("disjoint inputs picked %v, want %v", got, AlgoRTree)
	}

	// Elements along a line: elongated MBR -> sweep.
	r := rand.New(rand.NewSource(33))
	line := make([]index.Item, 2000)
	for i := range line {
		c := geom.V(r.Float64()*10000, r.Float64()*20, r.Float64()*20)
		line[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(0.5, 0.5, 0.5))}
	}
	if got := pl.Pick(ComputeSelfStats(line)); got != AlgoPlaneSweep {
		t.Fatalf("collinear input picked %v, want %v", got, AlgoPlaneSweep)
	}

	// Uniform cube self-join -> grid.
	uniform := randomItems(5000, 34, geom.Vec3{})
	if got := pl.Pick(ComputeSelfStats(uniform)); got != AlgoGrid {
		t.Fatalf("uniform input picked %v, want %v", got, AlgoGrid)
	}

	// Tiny input -> nested loop.
	if got := pl.Pick(ComputeSelfStats(uniform[:20])); got != AlgoNestedLoop {
		t.Fatalf("tiny input picked %v, want %v", got, AlgoNestedLoop)
	}
}

// TestPlanTasksPartitionWork asserts that running tasks individually emits
// every pair exactly once — the reference-point technique (grid) and the
// emission-site filters (tree joins) make task outputs globally disjoint, so
// no dedup pass is needed between tasks.
func TestPlanTasksPartitionWork(t *testing.T) {
	items := randomItems(800, 35, geom.Vec3{})
	opts := Options{Eps: 0.8}
	want := canon(SelfNestedLoop(items, opts))
	for _, algo := range []Algorithm{AlgoNestedLoop, AlgoPlaneSweep, AlgoGrid, AlgoRTree, AlgoTOUCH} {
		p := Planner{}.PlanSelfWith(algo, items, opts)
		var raw []Pair
		for task := 0; task < p.Tasks(); task++ {
			raw = p.RunTask(task, nil, raw)
		}
		SortPairs(raw)
		for i := 1; i < len(raw); i++ {
			if raw[i] == raw[i-1] {
				t.Fatalf("%v emitted duplicate pair %+v", algo, raw[i])
			}
		}
		if !reflect.DeepEqual(append([]Pair(nil), raw...), want) {
			t.Fatalf("%v raw task output: %d pairs, want %d", algo, len(raw), len(want))
		}
		p.Close()
	}
}

// TestPlanTaskGranularity: plans over non-trivial inputs must decompose into
// enough tasks to keep a worker pool busy.
func TestPlanTaskGranularity(t *testing.T) {
	items := randomItems(5000, 36, geom.Vec3{})
	for _, algo := range []Algorithm{AlgoNestedLoop, AlgoPlaneSweep, AlgoGrid, AlgoRTree, AlgoTOUCH} {
		p := Planner{}.PlanSelfWith(algo, items, Options{Eps: 0.5})
		if p.Tasks() < 8 {
			t.Errorf("%v: only %d tasks for 5000 elements", algo, p.Tasks())
		}
		p.Close()
	}
}

// TestPlanEmptyInputs: degenerate plans have zero tasks and empty results.
func TestPlanEmptyInputs(t *testing.T) {
	items := randomItems(5, 37, geom.Vec3{})
	for _, algo := range []Algorithm{AlgoNestedLoop, AlgoPlaneSweep, AlgoGrid, AlgoRTree, AlgoTOUCH} {
		p := Planner{}.PlanWith(algo, nil, items, Options{})
		if p.Tasks() != 0 || len(p.Run()) != 0 {
			t.Errorf("%v: empty input produced %d tasks, %d pairs", algo, p.Tasks(), len(p.Run()))
		}
		p.Close()
		p = Planner{}.PlanSelfWith(algo, items[:1], Options{Eps: 100})
		if p.Tasks() != 0 || len(p.Run()) != 0 {
			t.Errorf("%v: single-element self plan produced pairs", algo)
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

// TestParseAlgorithm covers the CLI/HTTP name resolution.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{AlgoNestedLoop, AlgoPlaneSweep, AlgoGrid, AlgoRTree, AlgoTOUCH} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm accepted bogus name")
	}
}

// TestTOUCHBuildsOverSmallerSide: a skewed binary TOUCH plan must build the
// hierarchy over the small input and probe with the large one (the planner's
// rationale for picking it), while preserving the (as, bs) pair orientation
// and decomposing tasks over the large probe side.
func TestTOUCHBuildsOverSmallerSide(t *testing.T) {
	big := randomItems(4000, 41, geom.Vec3{})
	small := randomItems(120, 42, geom.V(0.2, 0.2, 0.2))
	for i := range small {
		small[i].ID += 1000000
	}
	opts := Options{Eps: 0.8}
	want := canonUnordered(NestedLoop(big, small, opts))
	if len(want) == 0 {
		t.Fatal("ground truth empty")
	}

	// bs smaller: build/probe are swapped internally.
	p := Planner{}.PlanWith(AlgoTOUCH, big, small, opts)
	if p.Tasks() < 8 {
		t.Fatalf("skewed TOUCH plan decomposed into only %d tasks — probing with the small side?", p.Tasks())
	}
	got := p.Run()
	p.Close()
	for _, pr := range got {
		if pr.A >= 1000000 || pr.B < 1000000 {
			t.Fatalf("pair %+v lost the (as, bs) orientation", pr)
		}
	}
	if !reflect.DeepEqual(canonUnordered(got), want) {
		t.Fatalf("swapped TOUCH: %d pairs, want %d", len(got), len(want))
	}

	// as smaller: no swap, same result set.
	p = Planner{}.PlanWith(AlgoTOUCH, small, big, opts)
	rev := p.Run()
	p.Close()
	for _, pr := range rev {
		if pr.A < 1000000 || pr.B >= 1000000 {
			t.Fatalf("pair %+v lost the (as, bs) orientation", pr)
		}
	}
	if len(rev) != len(got) {
		t.Fatalf("orientation-reversed join found %d pairs, want %d", len(rev), len(got))
	}
}
