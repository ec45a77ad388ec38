package serve

// Store-level observability guarantees: a ?trace=1 span tree must account for
// (nearly) all of the request's wall time — a trace that loses time somewhere
// cannot explain a slow query — and the tracing-off path must add nothing:
// with metrics enabled and no trace attached, the cached-hit fast path incurs
// zero extra allocations over a store with no observability at all.

import (
	"context"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
)

// findSpan walks the rendered tree depth-first for the first span of a stage.
func findSpan(s *obs.SpanJSON, stage string) *obs.SpanJSON {
	if s == nil {
		return nil
	}
	if s.Stage == stage {
		return s
	}
	for _, c := range s.Children {
		if hit := findSpan(c, stage); hit != nil {
			return hit
		}
	}
	return nil
}

func TestTraceSpansCoverWallTime(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(200, 0))

	// Stretch every shard visit so execution dominates the request: the span
	// tree must then attribute that time to the fan-out, not lose it.
	const stretch = 10 * time.Millisecond
	armShardFault(t, faultinject.Spec{LatencyRate: 1, Latency: stretch})

	tr := obs.NewTrace("/v1/range")
	ctx := obs.WithTrace(context.Background(), tr)
	universe := geom.NewAABB(geom.V(-1, -1, -100), geom.V(40, 40, 100))
	start := time.Now()
	rep := s.Query(Request{Ctx: ctx, Op: OpRange, Query: universe})
	wall := time.Since(start)
	root := tr.Finish()

	if rep.Err != nil || len(rep.Items) != 200 {
		t.Fatalf("query failed under trace: err=%v items=%d", rep.Err, len(rep.Items))
	}
	if root == nil {
		t.Fatal("Finish returned nil for a live trace")
	}
	if root.Attrs["epoch"] == nil {
		t.Fatalf("root span missing epoch attribute: %+v", root.Attrs)
	}

	// The root covers the wall clock of the request (Finish ran after the
	// wall measurement, so it can only be a hair longer, never shorter).
	if rootDur := time.Duration(root.DurationMicros) * time.Microsecond; rootDur < wall-time.Millisecond {
		t.Fatalf("root span %v shorter than request wall time %v", rootDur, wall)
	}

	fan := findSpan(root, "fanout")
	if fan == nil {
		t.Fatalf("no fanout span in trace: %+v", root)
	}
	if rep.Plan.FanOut < 2 {
		t.Fatalf("universe query should fan out to several shards, got %d", rep.Plan.FanOut)
	}
	var visits int
	var visitSum int64
	for _, c := range fan.Children {
		if c.Stage != "shard_visit" {
			continue
		}
		visits++
		visitSum += c.DurationMicros
		if c.Shard == nil {
			t.Fatalf("shard_visit span without shard tag: %+v", c)
		}
	}
	if visits != rep.Plan.FanOut {
		t.Fatalf("trace shows %d shard visits, reply fan-out is %d", visits, rep.Plan.FanOut)
	}
	// Each visited shard slept for stretch (sequential fan-out), so the shard
	// spans must sum to at least fan×stretch — and the tree must sum to ≈ the
	// wall time: the fan-out span accounts for the bulk of the root.
	if want := int64(rep.Plan.FanOut) * stretch.Microseconds(); visitSum < want*8/10 {
		t.Fatalf("shard_visit spans sum to %dus, want >= %dus (80%% of injected latency)", visitSum, want)
	}
	var childSum int64
	for _, c := range root.Children {
		childSum += c.DurationMicros
	}
	if childSum < root.DurationMicros*7/10 {
		t.Fatalf("direct children sum to %dus of a %dus root — the trace lost the request's time",
			childSum, root.DurationMicros)
	}
	if fan.DurationMicros < root.DurationMicros*6/10 {
		t.Fatalf("fanout span %dus does not dominate the stretched %dus request",
			fan.DurationMicros, root.DurationMicros)
	}
}

// cachedHitAllocs measures steady-state allocations of a cached range hit on
// a store wired with reg (nil = no observability).
func cachedHitAllocs(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	s := mustNew(t, Config{Shards: 2, Workers: 2, CacheEntries: 16, Metrics: reg})
	defer s.Close()
	s.Bootstrap(genItems(100, 0))
	q := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 10))

	if warm := s.Query(Request{Op: OpRange, Query: q}); warm.Err != nil {
		t.Fatalf("warming query failed: %v", warm.Err)
	}
	buf := make([]index.Item, 0, 256)
	missedHit := false
	allocs := testing.AllocsPerRun(200, func() {
		rep := s.Query(Request{Op: OpRange, Query: q, Buf: buf[:0]})
		if !rep.Plan.CacheHit {
			missedHit = true
		}
	})
	if missedHit {
		t.Fatal("repeat query did not hit the cache")
	}
	return allocs
}

func TestTracingOffAddsZeroAllocsOnCachedHit(t *testing.T) {
	baseline := cachedHitAllocs(t, nil)
	withMetrics := cachedHitAllocs(t, obs.NewRegistry())
	if withMetrics > baseline {
		t.Fatalf("metrics-on/tracing-off cached hit costs %.1f allocs/op, baseline store costs %.1f — instrumentation leaked onto the fast path",
			withMetrics, baseline)
	}
	// The fast path itself is allocation-free: the cache key builds on the
	// stack, admit hands out a pre-built release func, and the hit copies into
	// the caller's buffer.
	if baseline != 0 {
		t.Fatalf("cached-hit path allocates %.1f times per op — fast path regressed", baseline)
	}
}

// TestJoinTraceReportsComparisons pins the join's cost on the wire: a traced
// grid self-join has a join_plan span and a join_exec span carrying the
// comparison, cell and task counts, and the reply's PlanInfo.Comparisons is
// the same count the workers charged.
func TestJoinTraceReportsComparisons(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(300, 0))

	tr := obs.NewTrace("/v1/join")
	ctx := obs.WithTrace(context.Background(), tr)
	rep := s.Query(Request{Ctx: ctx, Op: OpJoin, Join: JoinRequest{Eps: 0.5}})
	root := tr.Finish()
	if rep.Err != nil || len(rep.Pairs) == 0 {
		t.Fatalf("join failed: err=%v pairs=%d", rep.Err, len(rep.Pairs))
	}
	want := rep.JoinStats.Aggregate().Comparisons
	if want == 0 || rep.Plan.Comparisons != want {
		t.Fatalf("PlanInfo.Comparisons = %d, workers charged %d", rep.Plan.Comparisons, want)
	}
	if ps := findSpan(root, "join_plan"); ps == nil || ps.Attrs["algorithm"] != "grid" {
		t.Fatalf("no join_plan span naming the algorithm: %+v", ps)
	}
	js := findSpan(root, "join_exec")
	if js == nil {
		t.Fatalf("no join_exec span: %+v", root)
	}
	if js.Attrs["comparisons"] != want || js.Attrs["tasks"] != rep.JoinStats.Tasks || js.Attrs["pairs"] != len(rep.Pairs) {
		t.Fatalf("join_exec attrs %+v, want comparisons %d tasks %d pairs %d", js.Attrs, want, rep.JoinStats.Tasks, len(rep.Pairs))
	}
	if cells, ok := js.Attrs["cells"].(int); !ok || cells < 1 {
		t.Fatalf("join_exec cells = %v, want a positive grid cell count", js.Attrs["cells"])
	}
}
