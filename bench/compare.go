package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultSet is the runs of one result file, grouped by workload.
type resultSet map[string][]runResult

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(resultSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	return set, sc.Err()
}

func (s resultSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s[workload] {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func (s resultSet) failedFrac(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range s[workload] {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict judges one (metric, workload) pair of two result sets: the second
// set's median against the first's, by the metric's bound. A pair whose
// run-to-run spread (interquartile range over median, in either set) is wider
// than the bound cannot be resolved either way.
func verdict(ms metricSpec, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	spread := max(quartileSpread(a), quartileSpread(b))
	worse := (mb - ma) / ma
	if ms.Better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case spread > ms.Bound:
		return "unresolved", worse, spread
	case worse > ms.Bound:
		return "regressed", worse, spread
	default:
		return "ok", worse, spread
	}
}

// compareFiles prints, per workload and bounded metric, whether the second
// result set holds the first's numbers, and returns 1 if any pair regressed
// or a workload's failed fraction rose.
func compareFiles(root, pathA, pathB string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bounded := append(append([]metricSpec(nil), bf.EndToEnd...), workloadScoped...)
	names := make([]string, 0, len(a))
	for w := range a {
		if _, ok := b[w]; ok && w != traceWorkload {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	code := 0
	for _, w := range names {
		fmt.Fprintf(stdout, "workload %s (%d runs against %d)\n", w, len(a[w]), len(b[w]))
		for _, ms := range bounded {
			va, vb := a.values(w, ms.Name), b.values(w, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, spread := verdict(ms, va, vb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-22s %-10s %14.4f -> %14.4f %-6s worse by %+6.1f%% (bound %4.1f%%, spread %4.1f%%)\n",
				ms.Name, v, median(va), median(vb), ms.Unit, worse*100, ms.Bound*100, spread*100)
		}
		fa, fb := a.failedFrac(w), b.failedFrac(w)
		v := "ok"
		if fb > fa {
			v, code = "regressed", 1
		}
		fmt.Fprintf(stdout, "  %-22s %-10s %14g -> %14g (may not rise)\n", "failed_frac", v, fa, fb)
	}
	return code
}
