package main

import (
	"strings"
	"testing"
)

// TestRunIndexesSmoke drives the main path end to end on a tiny scale: flag
// parsing, experiment dispatch, and table rendering.
func TestRunIndexesSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "indexes", "-elements", "2000", "-queries", "10", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "rtree") {
		t.Fatalf("indexes table missing rtree row:\n%s", out.String())
	}
}

// TestRunDispatchesEveryExperiment runs each -exp name at a tiny scale and
// checks it printed its own table and no other, then checks "all" prints
// every table in list order.
func TestRunDispatchesEveryExperiment(t *testing.T) {
	titles := map[string]string{
		"fig2":                "Figure 2:",
		"fig3":                "Figure 3:",
		"fig4":                "Figure 4:",
		"updates":             "Section 4.1:",
		"indexes":             "E5:",
		"lsh":                 "E5b:",
		"join":                "E6:",
		"moving":              "E7:",
		"simstep":             "E8:",
		"mesh":                "E9:",
		"ablation-resolution": "Ablation: grid resolution",
		"ablation-advisor":    "Ablation: SimIndex maintenance",
	}
	if len(titles) != len(experimentList) {
		t.Fatalf("%d titles for %d experiments", len(titles), len(experimentList))
	}
	for _, e := range experimentList {
		e := e
		t.Run(e.name, func(t *testing.T) {
			want, ok := titles[e.name]
			if !ok {
				t.Fatalf("no title for experiment %q", e.name)
			}
			var out strings.Builder
			if err := run([]string{"-exp", e.name, "-elements", "2000", "-queries", "10", "-steps", "1"}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			got := out.String()
			if !strings.HasPrefix(got, want) {
				t.Fatalf("output does not start with %q:\n%s", want, got)
			}
			for name, title := range titles {
				if name != e.name && strings.Contains(got, title) {
					t.Fatalf("output also holds the %s table:\n%s", name, got)
				}
			}
		})
	}
	t.Run("all", func(t *testing.T) {
		var out strings.Builder
		if err := run([]string{"-exp", "all", "-elements", "2000", "-queries", "10", "-steps", "1"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		rest := out.String()
		for _, e := range experimentList {
			i := strings.Index(rest, titles[e.name])
			if i < 0 {
				t.Fatalf("all: %s table missing or out of order:\n%s", e.name, out.String())
			}
			rest = rest[i:]
		}
	})
}

// TestRunRejectsUnknownExperiment checks the error paths: unknown and
// retired experiment names fail dispatch, unknown and retired flags fail
// flag parsing.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nope", "serve", "join-scale", "plan", "cluster", "parallel", "cache-layout"} {
		var out strings.Builder
		if err := run([]string{"-exp", name, "-elements", "2000"}, &out); err == nil {
			t.Errorf("experiment %q should fail", name)
		}
	}
	for _, flag := range []string{"-bogus", "-out=x.json", "-workers=2", "-duration=1s", "-shards=2"} {
		var out strings.Builder
		if err := run([]string{flag}, &out); err == nil {
			t.Errorf("flag %s should fail", flag)
		}
	}
}
