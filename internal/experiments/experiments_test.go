package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps the experiment drivers fast enough for unit tests while
// still exercising every code path.
func tinyScale() Scale {
	return Scale{Elements: 6000, Queries: 30, Selectivity: 5e-5, Seed: 42}
}

func TestFigure2ShapeMatchesPaper(t *testing.T) {
	r := Figure2(tinyScale())
	// The paper's qualitative shape: the disk run is dominated by reading
	// data, the memory run by computation, and the memory run is much faster.
	if r.DiskReadingPct < 80 {
		t.Fatalf("disk run should be I/O dominated, reading = %.1f%%", r.DiskReadingPct)
	}
	if r.MemoryReadingPct > 30 {
		t.Fatalf("memory run should be computation dominated, reading = %.1f%%", r.MemoryReadingPct)
	}
	if r.DiskTotal < r.MemoryTotal*5 {
		t.Fatalf("disk total %v not much larger than memory total %v", r.DiskTotal, r.MemoryTotal)
	}
	if r.DiskPagesRead == 0 || r.MemoryElementsHit == 0 {
		t.Fatal("work counters empty")
	}
	if !strings.Contains(r.String(), "Figure 2") {
		t.Fatal("String missing title")
	}
}

func TestFigure3ShapeMatchesPaper(t *testing.T) {
	r := Figure3(tinyScale())
	sum := r.ReadingPct + r.TreeTestsPct + r.ElementTestsPct + r.RemainingPct
	if sum < 99 || sum > 101 {
		t.Fatalf("percentages sum to %v", sum)
	}
	// Qualitative shape: intersection tests dominate, with tree tests the
	// largest single category; reading data is a small share.
	if r.TreeTestsPct+r.ElementTestsPct < 50 {
		t.Fatalf("intersection tests should dominate, got %.1f%%", r.TreeTestsPct+r.ElementTestsPct)
	}
	if r.TreeTestsPct <= r.ReadingPct {
		t.Fatalf("tree tests (%.1f%%) should exceed reading data (%.1f%%)", r.TreeTestsPct, r.ReadingPct)
	}
	if r.TreeTests == 0 || r.ElementTests == 0 {
		t.Fatal("counters empty")
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Fatal("String missing title")
	}
}

func TestFigure4GridBeatsRTreeOnUnnecessaryTests(t *testing.T) {
	r := Figure4(tinyScale())
	if r.ResultsPerQuery <= 0 {
		t.Fatal("queries returned no results; scale too small")
	}
	if r.GridElementTestsPerQuery >= r.RTreeElementTestsPerQuery {
		t.Fatalf("grid element tests (%.1f) should be below R-Tree (%.1f)",
			r.GridElementTestsPerQuery, r.RTreeElementTestsPerQuery)
	}
	if r.UnnecessaryRatioGrid >= r.UnnecessaryRatioRTree {
		t.Fatal("grid should waste fewer tests per result")
	}
	if !strings.Contains(r.String(), "Figure 4") {
		t.Fatal("String missing title")
	}
}

func TestUpdateVsRebuildCrossover(t *testing.T) {
	r := UpdateVsRebuild(tinyScale(), []float64{0.05, 0.25, 0.5, 1.0})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Updating a small fraction must beat rebuilding; updating everything
	// must lose to rebuilding (the Section 4.1 observation).
	if !r.Rows[0].UpdateWins {
		t.Fatalf("5%% changed should favor update: %+v", r.Rows[0])
	}
	if r.Rows[len(r.Rows)-1].UpdateWins {
		t.Fatalf("100%% changed should favor rebuild: %+v", r.Rows[len(r.Rows)-1])
	}
	if r.CrossoverFraction <= 0.05 || r.CrossoverFraction >= 1 {
		t.Fatalf("crossover fraction = %v", r.CrossoverFraction)
	}
	// Movement statistics match the paper's trace characteristics.
	if r.Movement.MeanDisplacement < 0.02 || r.Movement.MeanDisplacement > 0.06 {
		t.Fatalf("mean displacement = %v", r.Movement.MeanDisplacement)
	}
	if r.Movement.FractionAboveThreshold > 0.02 {
		t.Fatalf("fraction above threshold = %v", r.Movement.FractionAboveThreshold)
	}
	if !strings.Contains(r.String(), "Section 4.1") {
		t.Fatal("String missing title")
	}
}

func TestIndexComparisonRunsAllFamilies(t *testing.T) {
	r := IndexComparison(tinyScale())
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	names := make(map[string]bool)
	for _, row := range r.Rows {
		names[row.Name] = true
		if row.BuildTime <= 0 || row.RangeTime <= 0 {
			t.Fatalf("row %s missing timings", row.Name)
		}
	}
	for _, want := range []string{"rtree", "crtree", "grid", "multigrid", "octree", "loose-octree", "scan"} {
		if !names[want] {
			t.Fatalf("missing index %q in comparison", want)
		}
	}
	if !strings.Contains(r.String(), "E5") {
		t.Fatal("String missing title")
	}
}

func TestLSHRecallReasonable(t *testing.T) {
	r := MeasureLSHRecall(tinyScale())
	if r.Recall < 0.8 {
		t.Fatalf("LSH recall %.2f below 0.8", r.Recall)
	}
	if !strings.Contains(r.String(), "recall") {
		t.Fatal("String malformed")
	}
}

func TestJoinComparisonAgreesAcrossAlgorithms(t *testing.T) {
	r := JoinComparison(tinyScale())
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// All algorithms must report the same number of pairs.
	pairs := r.Rows[0].Pairs
	for _, row := range r.Rows {
		if row.Pairs != pairs {
			t.Fatalf("pair counts disagree: %s has %d, %s has %d", r.Rows[0].Name, pairs, row.Name, row.Pairs)
		}
	}
	// The partition-based joins need far fewer comparisons than the nested
	// loop (present at this scale).
	var nested, gridJoin int64
	for _, row := range r.Rows {
		switch row.Name {
		case "nested-loop":
			nested = row.Comparisons
		case "grid":
			gridJoin = row.Comparisons
		}
	}
	if nested == 0 || gridJoin == 0 {
		t.Fatal("expected both nested-loop and grid rows at this scale")
	}
	if gridJoin >= nested/4 {
		t.Fatalf("grid join comparisons %d not much below nested loop %d", gridJoin, nested)
	}
	if !strings.Contains(r.String(), "E6") {
		t.Fatal("String missing title")
	}
}

func TestMovingComparisonCorrectAndMeasured(t *testing.T) {
	r := MovingComparison(tinyScale(), 2, 10)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ResultError != 0 {
			t.Fatalf("strategy %s returned wrong results (%d errors)", row.Name, row.ResultError)
		}
		if row.TotalTime <= 0 {
			t.Fatalf("strategy %s missing timings", row.Name)
		}
	}
	if !strings.Contains(r.String(), "E7") {
		t.Fatal("String missing title")
	}
}

func TestSimStepComparison(t *testing.T) {
	r := SimStep(tinyScale(), 2, 40)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.TotalTime <= 0 {
			t.Fatalf("row %s missing timings", row.Name)
		}
	}
	if !strings.Contains(r.String(), "E8") {
		t.Fatal("String missing title")
	}
}

func TestMeshExperimentConnectivityNeedsNoMaintenance(t *testing.T) {
	r := Mesh(Scale{Elements: 8000, Queries: 20, Seed: 7}, 2, 20)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ResultErrors != 0 {
			t.Fatalf("method %s returned wrong results (%d errors)", row.Name, row.ResultErrors)
		}
	}
	var dlsRow, rtreeRow MeshRow
	for _, row := range r.Rows {
		switch row.Name {
		case "dls":
			dlsRow = row
		case "rtree-rebuild":
			rtreeRow = row
		}
	}
	if dlsRow.MaintenanceTime != 0 {
		t.Fatal("DLS should need no maintenance")
	}
	if rtreeRow.MaintenanceTime <= 0 {
		t.Fatal("rebuilt R-Tree should have maintenance cost")
	}
	if !strings.Contains(r.String(), "E9") {
		t.Fatal("String missing title")
	}
}

func TestAblationGridResolution(t *testing.T) {
	r := AblationGridResolution(tinyScale(), []int{4, 16, 64})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Suggested <= 0 {
		t.Fatal("suggested resolution missing")
	}
	// Finer grids test fewer elements per query but replicate more.
	if r.Rows[2].ElementTests > r.Rows[0].ElementTests {
		t.Fatalf("finer grid should not test more elements: %d vs %d", r.Rows[2].ElementTests, r.Rows[0].ElementTests)
	}
	if r.Rows[2].Replication < r.Rows[0].Replication {
		t.Fatal("finer grid should replicate at least as much")
	}
	if !strings.Contains(r.String(), "Ablation") {
		t.Fatal("String missing title")
	}
}

func TestAblationAdvisor(t *testing.T) {
	r := AblationAdvisor(tinyScale(), 3, 20)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var advised, alwaysRebuild AblationAdvisorRow
	for _, row := range r.Rows {
		if row.TotalTime <= 0 {
			t.Fatalf("row %s missing timings", row.Policy)
		}
		switch row.Policy {
		case "advised":
			advised = row
		case "always-rebuild":
			alwaysRebuild = row
		}
	}
	if advised.Rebuilds >= alwaysRebuild.Rebuilds && alwaysRebuild.Rebuilds > 0 {
		if advised.Rebuilds > alwaysRebuild.Rebuilds {
			t.Fatalf("advised policy rebuilt more often (%d) than always-rebuild (%d)", advised.Rebuilds, alwaysRebuild.Rebuilds)
		}
	}
	if !strings.Contains(r.String(), "Ablation") {
		t.Fatal("String missing title")
	}
}

func TestScaleDefaults(t *testing.T) {
	s := Scale{}.withDefaults()
	if s.Elements != 200000 || s.Queries != 200 || s.Selectivity != 5e-6 {
		t.Fatalf("defaults = %+v", s)
	}
	d := DefaultScale()
	if d.Elements != 200000 {
		t.Fatalf("DefaultScale = %+v", d)
	}
}

func TestParallelSpeedupRunsAllFamilies(t *testing.T) {
	s := tinyScale()
	s.Workers = 4
	r := ParallelSpeedup(s)
	if r.Workers != 4 {
		t.Fatalf("Workers = %d", r.Workers)
	}
	if len(r.Rows) < 6 {
		t.Fatalf("only %d families measured", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SeqRange <= 0 || row.ParRange <= 0 {
			t.Fatalf("%s: range timings not recorded: %+v", row.Name, row)
		}
		if row.RangeSpeedup <= 0 || row.BuildSpeedup <= 0 || row.KNNSpeedup <= 0 {
			t.Fatalf("%s: speedups not computed: %+v", row.Name, row)
		}
	}
	out := r.String()
	if !strings.Contains(out, "E10") || !strings.Contains(out, "concurrent-rtree") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
}

func TestCacheLayoutComparesAllFamilies(t *testing.T) {
	r := CacheLayout(tinyScale())
	if len(r.Rows) != 3 {
		t.Fatalf("expected 3 families, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PointerTime <= 0 || row.CompactTime <= 0 {
			t.Fatalf("%s: timings not recorded: %+v", row.Family, row)
		}
		if row.Speedup <= 0 {
			t.Fatalf("%s: speedup not computed", row.Family)
		}
		if row.CompactTests.ElemIntersectTests == 0 {
			t.Fatalf("%s: compact run recorded no element tests", row.Family)
		}
		// Same algorithm, different layout: the compact run must not do more
		// element intersection tests than the pointer run.
		if row.CompactTests.ElemIntersectTests > row.PointerTests.ElemIntersectTests {
			t.Fatalf("%s: compact did more element tests (%d) than pointer (%d)",
				row.Family, row.CompactTests.ElemIntersectTests, row.PointerTests.ElemIntersectTests)
		}
	}
	out := r.String()
	if !strings.Contains(out, "E11") || !strings.Contains(out, "rtree") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
}

func TestServeBenchMixedLoad(t *testing.T) {
	r := ServeBench(Scale{Elements: 3000, Seed: 5}, ServeConfig{
		Shards: 3, Readers: 3, Duration: 150 * time.Millisecond,
		UpdateEvery: 25 * time.Millisecond,
	})
	if r.Ops == 0 || r.RangeOps == 0 || r.KNNOps == 0 {
		t.Fatalf("mixed load did not run both query kinds: %+v", r)
	}
	if r.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if r.P50 <= 0 || r.P99 < r.P50 || r.Max < r.P99 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v max=%v", r.P50, r.P99, r.Max)
	}
	// The writer must have turned epochs over under the readers: bootstrap is
	// swap 1, so mixed load needs at least one more.
	if r.EpochSwaps < 2 || r.UpdatesApplied == 0 {
		t.Fatalf("no ingestion happened during the run: %+v", r)
	}
	out := r.String()
	if !strings.Contains(out, "E12") || !strings.Contains(out, "epoch swaps") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
}

func TestJoinScalingRunsAndReports(t *testing.T) {
	s := tinyScale()
	s.Workers = 2
	r := JoinScaling(s)
	if len(r.Rows) == 0 {
		t.Fatal("E13 produced no rows")
	}
	wantRows := 3 * 2 * len(r.Workers) // algorithms x datasets x worker ladder
	if len(r.Rows) != wantRows {
		t.Fatalf("E13 produced %d rows, want %d", len(r.Rows), wantRows)
	}
	for _, ds := range []string{"uniform", "clustered"} {
		if r.PlannerPicks[ds] == "" {
			t.Fatalf("no planner pick recorded for %s", ds)
		}
	}
	// Every (algo, dataset) must agree on the pair count across worker counts.
	counts := make(map[string]int)
	for _, row := range r.Rows {
		key := row.Algo + "/" + row.Dataset
		if prev, ok := counts[key]; ok && prev != row.Pairs {
			t.Fatalf("%s: pair count varies across workers (%d vs %d)", key, prev, row.Pairs)
		}
		counts[key] = row.Pairs
		if row.Pairs == 0 {
			t.Fatalf("%s: no pairs found; eps too small for the test scale", key)
		}
	}
	out := r.String()
	if !strings.Contains(out, "E13") || !strings.Contains(out, "planner picks") {
		t.Fatalf("unexpected E13 rendering:\n%s", out)
	}

	path := filepath.Join(t.TempDir(), "BENCH_PR4.json")
	if err := WriteJoinScaleReport(path, r); err != nil {
		t.Fatalf("WriteJoinScaleReport: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Elements     int               `json:"elements"`
		PlannerPicks map[string]string `json:"planner_picks"`
		Rows         []struct {
			Algo    string  `json:"algo"`
			Workers int     `json:"workers"`
			Speedup float64 `json:"speedup"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_PR4.json does not parse: %v", err)
	}
	if rep.Elements != s.Elements || len(rep.Rows) != wantRows || len(rep.PlannerPicks) != 2 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
}

func TestPlanBenchRunsAndReports(t *testing.T) {
	s := Scale{Elements: 4000, Seed: 3, Workers: 2}
	r := PlanBench(s, PlanBenchConfig{
		Shards: 4, CacheEntries: 256, RangeQueries: 24, KNNQueries: 12, Repeats: 2, Joins: 1,
	})
	if len(r.Static) != 5 {
		t.Fatalf("E14 must race all five static families, got %d rows", len(r.Static))
	}
	if r.Planner.Wall <= 0 || r.Planner.Throughput <= 0 {
		t.Fatalf("planner row not measured: %+v", r.Planner)
	}
	if r.BestStatic == "" || r.WorstStatic == "" || r.BestStatic == r.WorstStatic {
		t.Fatalf("best/worst statics not ranked: best=%q worst=%q", r.BestStatic, r.WorstStatic)
	}
	if !r.PlannerBeatsWorst {
		t.Fatalf("planner lost to the worst static configuration (%s): %v", r.WorstStatic, r)
	}
	if r.CacheHitRate <= 0 {
		t.Fatalf("repeated working set produced no cache hits: %+v", r)
	}
	if len(r.Families) == 0 {
		t.Fatal("no family census recorded")
	}
	out := r.String()
	if !strings.Contains(out, "E14") || !strings.Contains(out, "planner beats worst") {
		t.Fatalf("unexpected E14 rendering:\n%s", out)
	}

	path := filepath.Join(t.TempDir(), "BENCH_PR6.json")
	if err := WritePlanBenchReport(path, r); err != nil {
		t.Fatalf("WritePlanBenchReport: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Elements          int     `json:"elements"`
		PlannerBeatsWorst bool    `json:"planner_beats_worst"`
		CacheHitRate      float64 `json:"cache_hit_rate"`
		Static            []struct {
			Config string  `json:"config"`
			WallMS float64 `json:"wall_ms"`
		} `json:"static"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_PR6.json does not parse: %v", err)
	}
	if rep.Elements != r.Elements || len(rep.Static) != 5 || !rep.PlannerBeatsWorst || rep.CacheHitRate <= 0 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
}

func TestClusterBenchConformanceAndDrills(t *testing.T) {
	s := Scale{Elements: 4000, Queries: 15, Selectivity: 5e-5, Seed: 7}
	r := ClusterBench(s, ClusterBenchConfig{Nodes: 3, Replication: 2, Shards: 4, SwapGens: 3, SwapReaders: 2, SwapItems: 400})
	if !r.Identical {
		t.Fatal("cluster answers diverge from the single store")
	}
	if r.TornEpochs != 0 {
		t.Fatalf("swap storm observed %d torn epochs", r.TornEpochs)
	}
	if r.FinalEpoch != 4 {
		t.Fatalf("storm final epoch = %d, want 4 (bootstrap + 3 generations)", r.FinalEpoch)
	}
	if !r.DegradedCorrect || !r.ReplicasAbsorb {
		t.Fatalf("kill drills failed: degraded_correct=%v replicas_absorb=%v", r.DegradedCorrect, r.ReplicasAbsorb)
	}
	if r.DegradedCount == 0 || r.DegradedCount >= r.FullCount {
		t.Fatalf("degraded count %d of %d is not a proper subset", r.DegradedCount, r.FullCount)
	}
	if !r.OK {
		t.Fatalf("gate failed: %+v", r)
	}
	if !strings.Contains(r.String(), "E16") {
		t.Fatal("String missing title")
	}

	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := WriteClusterBenchReport(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Nodes      int  `json:"nodes"`
		Identical  bool `json:"identical_answers"`
		TornEpochs int  `json:"torn_epochs"`
		Degraded   bool `json:"degraded_correct"`
		Absorb     bool `json:"replicas_absorb"`
		OK         bool `json:"ok"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Nodes != 3 || !rep.Identical || rep.TornEpochs != 0 || !rep.Degraded || !rep.Absorb || !rep.OK {
		t.Fatalf("report shape wrong: %+v", rep)
	}
}
