// Command spatialbench regenerates the paper's experiments from the command
// line. Each experiment prints rows in the shape of the corresponding figure
// or in-text result of Heinis et al., "Spatial Data Management Challenges in
// the Simulation Sciences" (EDBT 2014); the internal/experiments package doc
// maps every experiment to its driver and to the figure or section it
// reproduces.
//
// Usage:
//
//	spatialbench -exp all
//	spatialbench -exp fig2 -elements 500000 -queries 200
//
// Experiments: fig2, fig3, fig4, updates, indexes, lsh, join, moving,
// simstep, mesh, ablation-resolution, ablation-advisor, all.
//
// The serving stack (spatialserver, spatialcluster) is measured end to end
// and layer by layer by the bench/ harness (make perf), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spatialsim/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialbench:", err)
		os.Exit(1)
	}
}

// experiment is one -exp name and the driver call that prints its table.
type experiment struct {
	name string
	run  func(s experiments.Scale, steps int) fmt.Stringer
}

// experimentList is every -exp name in the order "all" runs them.
var experimentList = []experiment{
	{"fig2", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.Figure2(s) }},
	{"fig3", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.Figure3(s) }},
	{"fig4", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.Figure4(s) }},
	{"updates", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.UpdateVsRebuild(s, nil) }},
	{"indexes", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.IndexComparison(s) }},
	{"lsh", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.MeasureLSHRecall(s) }},
	{"join", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.JoinComparison(s) }},
	{"moving", func(s experiments.Scale, steps int) fmt.Stringer { return experiments.MovingComparison(s, steps, 50) }},
	{"simstep", func(s experiments.Scale, steps int) fmt.Stringer { return experiments.SimStep(s, steps, 100) }},
	{"mesh", func(s experiments.Scale, steps int) fmt.Stringer { return experiments.Mesh(s, steps, 50) }},
	{"ablation-resolution", func(s experiments.Scale, _ int) fmt.Stringer { return experiments.AblationGridResolution(s, nil) }},
	{"ablation-advisor", func(s experiments.Scale, steps int) fmt.Stringer { return experiments.AblationAdvisor(s, 2*steps, 100) }},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spatialbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		exp         = fs.String("exp", "all", "experiment to run (fig2|fig3|fig4|updates|indexes|lsh|join|moving|simstep|mesh|ablation-resolution|ablation-advisor|all)")
		elements    = fs.Int("elements", 100000, "number of spatial elements")
		queries     = fs.Int("queries", 200, "number of range queries")
		selectivity = fs.Float64("selectivity", 5e-6, "range query selectivity (fraction of universe volume)")
		steps       = fs.Int("steps", 3, "simulation steps for step-based experiments")
		seed        = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := experiments.Scale{
		Elements:    *elements,
		Queries:     *queries,
		Selectivity: *selectivity,
		Seed:        *seed,
	}
	return runExp(strings.ToLower(*exp), scale, *steps, stdout)
}

func runExp(name string, scale experiments.Scale, steps int, stdout io.Writer) error {
	ran := false
	for _, e := range experimentList {
		if name == "all" || name == e.name {
			fmt.Fprintln(stdout, e.run(scale, steps))
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
