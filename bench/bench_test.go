package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFileIsWellFormed(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		name("workload", w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		name("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	for _, p := range bf.Paths {
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory", p)
		}
	}
}

// TestSmokeRunPrintsEveryMetric drives a whole tiny run — both servers built
// and started, all five workloads, then the traced run — and checks that
// every named metric is printed, nothing fails, and the trace file holds one
// span per (layer, query) with parents that resolve.
func TestSmokeRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the servers")
	}
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.jsonl")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "3", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	printed := stdout.String()
	for _, w := range bf.Workloads {
		if !strings.Contains(printed, "workload "+w.Name+":") {
			t.Errorf("workload %s was not run", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), bf.EndToEnd...), workloadScoped...) {
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+[-0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`).MatchString(printed) {
			t.Errorf("metric %s (%s) was not printed", m.Name, m.Unit)
		}
	}
	if strings.Count(printed, "failed=0 failed_frac=0") != len(workloads) {
		t.Errorf("not every workload reported failed_frac=0:\n%s", printed)
	}

	// One workload alone ends with the driver's result line.
	stdout.Reset()
	if code := run([]string{"-smoke", "-workload", "lookup", "-seed", "3", "-trace", "0", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("single workload exited %d\n%s", code, stderr.String())
	}
	checkDriverLine(t, stdout.String(), bf.EndToEnd)

	stdout.Reset()
	if code := run([]string{"-smoke", "-workload", "lookup", "-seed", "3", "-trace", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	checkDriverLine(t, stdout.String(), bf.PerLayer)
	for _, m := range bf.PerLayer {
		if !strings.Contains(stdout.String(), " "+m.Name+" ") {
			t.Errorf("per-layer metric %s was not printed", m.Name)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "bench", "out", "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span)
	keys := make(map[spanKey]bool)
	var spans []span
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("trace.jsonl: %v", err)
		}
		k := spanKey{s.Layer, s.Class, s.Query}
		if keys[k] {
			t.Fatalf("two spans for %+v", k)
		}
		keys[k] = true
		byID[s.ID] = s
		spans = append(spans, s)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Parent == -1 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Layer != spanParent[s.Layer] || p.Query != s.Query {
			t.Fatalf("span %d (%s): parent %d does not resolve to its outer layer", s.ID, s.Layer, s.Parent)
		}
	}
}

func checkDriverLine(t *testing.T, printed string, want []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(printed), "\n")
	var line struct {
		Correct   *bool             `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("result line: %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("result line: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}
