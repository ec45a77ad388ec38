package experiments

import (
	"strings"
	"testing"
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
