// Command spatialbench regenerates the paper's experiments from the command
// line. Each experiment prints rows in the shape of the corresponding figure
// or in-text result of Heinis et al., "Spatial Data Management Challenges in
// the Simulation Sciences" (EDBT 2014).
//
// Usage:
//
//	spatialbench -exp all
//	spatialbench -exp fig2 -elements 500000 -queries 200
//	spatialbench -exp serve -duration 2s -out BENCH_PR3.json
//	spatialbench -exp join-scale -elements 80000 -out BENCH_PR4.json
//	spatialbench -exp plan -elements 60000 -out BENCH_PR6.json
//
// Experiments: fig2, fig3, fig4, updates, indexes, lsh, join, moving,
// simstep, mesh, ablation-resolution, ablation-advisor, parallel,
// cache-layout, serve, join-scale, plan, cluster, all.
//
// The -workers flag sets the goroutine budget of the parallel execution
// engine (internal/exec); "serve" is the load-generator mode that drives the
// sharded epoch-versioned serving store (internal/serve) with mixed
// query+update traffic and, with -out, records throughput and latency
// percentiles as JSON (BENCH_PR3.json); "join-scale" measures the
// planner-driven parallel join engine across algorithms, worker counts and
// dataset densities and, with -out, records the speedups as JSON
// (BENCH_PR4.json); "plan" races the statistics-driven query planner (with
// the epoch result cache) against every forced static index family on one
// mixed range/kNN/join workload and, with -out, records the walls and the
// planner-beats-worst verdict as JSON (BENCH_PR6.json); "cluster" proves
// the distributed coordinator — scatter/gather answers identical to a single
// store, zero torn epochs under cluster-wide swap load,
// node kills degraded-but-correct (replication 1) or absorbed (replication 2)
// — and, with -out, records the run as JSON (BENCH_PR10.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spatialsim/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spatialbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		exp         = fs.String("exp", "all", "experiment to run (fig2|fig3|fig4|updates|indexes|lsh|join|moving|simstep|mesh|ablation-resolution|ablation-advisor|parallel|cache-layout|serve|join-scale|plan|cluster|all)")
		elements    = fs.Int("elements", 100000, "number of spatial elements")
		queries     = fs.Int("queries", 200, "number of range queries")
		selectivity = fs.Float64("selectivity", 5e-6, "range query selectivity (fraction of universe volume)")
		steps       = fs.Int("steps", 3, "simulation steps for step-based experiments")
		seed        = fs.Int64("seed", 1, "random seed")
		workers     = fs.Int("workers", 0, "worker goroutines for the parallel engine (0 = GOMAXPROCS)")
		duration    = fs.Duration("duration", 2*time.Second, "measured run length of the serve load generator")
		shards      = fs.Int("shards", 0, "serve: STR shards per epoch (0 = GOMAXPROCS)")
		readers     = fs.Int("readers", 0, "serve: concurrent query clients (0 = 2x GOMAXPROCS)")
		out         = fs.String("out", "", "serve/join-scale/plan: write the run as JSON to this file (e.g. BENCH_PR3.json, BENCH_PR4.json, BENCH_PR6.json)")
		cacheSize   = fs.Int("cache", 0, "plan: planner store's per-epoch result-cache entries (0 = 512)")
		nodes       = fs.Int("nodes", 0, "cluster: fleet size (0 = 3)")
		replication = fs.Int("replication", 0, "cluster: owners per tile (0 = 2)")
		swapGens    = fs.Int("swap-gens", 0, "cluster: swap-storm generations (0 = 8)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := experiments.Scale{
		Elements:    *elements,
		Queries:     *queries,
		Selectivity: *selectivity,
		Seed:        *seed,
		Workers:     *workers,
	}
	serveCfg := experiments.ServeConfig{
		Shards:   *shards,
		Readers:  *readers,
		Duration: *duration,
	}
	planCfg := experiments.PlanBenchConfig{
		Shards:       *shards,
		CacheEntries: *cacheSize,
	}
	clusterCfg := experiments.ClusterBenchConfig{
		Nodes:       *nodes,
		Replication: *replication,
		Shards:      *shards,
		SwapGens:    *swapGens,
	}
	return runExp(strings.ToLower(*exp), scale, *steps, serveCfg, planCfg, clusterCfg, *out, stdout)
}

func runExp(exp string, scale experiments.Scale, steps int, serveCfg experiments.ServeConfig, planCfg experiments.PlanBenchConfig, clusterCfg experiments.ClusterBenchConfig, out string, stdout io.Writer) error {
	runOne := func(name, out string) error {
		switch name {
		case "fig2":
			fmt.Fprintln(stdout, experiments.Figure2(scale))
		case "fig3":
			fmt.Fprintln(stdout, experiments.Figure3(scale))
		case "fig4":
			fmt.Fprintln(stdout, experiments.Figure4(scale))
		case "updates":
			fmt.Fprintln(stdout, experiments.UpdateVsRebuild(scale, nil))
		case "indexes":
			fmt.Fprintln(stdout, experiments.IndexComparison(scale))
		case "lsh":
			fmt.Fprintln(stdout, experiments.MeasureLSHRecall(scale))
		case "join":
			fmt.Fprintln(stdout, experiments.JoinComparison(scale))
		case "moving":
			fmt.Fprintln(stdout, experiments.MovingComparison(scale, steps, 50))
		case "simstep":
			fmt.Fprintln(stdout, experiments.SimStep(scale, steps, 100))
		case "mesh":
			fmt.Fprintln(stdout, experiments.Mesh(scale, steps, 50))
		case "ablation-resolution":
			fmt.Fprintln(stdout, experiments.AblationGridResolution(scale, nil))
		case "ablation-advisor":
			fmt.Fprintln(stdout, experiments.AblationAdvisor(scale, 2*steps, 100))
		case "parallel":
			fmt.Fprintln(stdout, experiments.ParallelSpeedup(scale))
		case "cache-layout":
			fmt.Fprintln(stdout, experiments.CacheLayout(scale))
		case "serve":
			res := experiments.ServeBench(scale, serveCfg)
			fmt.Fprintln(stdout, res)
			if out != "" {
				if err := experiments.WriteServeReport(out, res); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", out)
			}
		case "join-scale":
			res := experiments.JoinScaling(scale)
			fmt.Fprintln(stdout, res)
			if out != "" {
				if err := experiments.WriteJoinScaleReport(out, res); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", out)
			}
		case "plan":
			res := experiments.PlanBench(scale, planCfg)
			fmt.Fprintln(stdout, res)
			if out != "" {
				if err := experiments.WritePlanBenchReport(out, res); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", out)
			}
		case "cluster":
			res := experiments.ClusterBench(scale, clusterCfg)
			fmt.Fprintln(stdout, res)
			if out != "" {
				if err := experiments.WriteClusterBenchReport(out, res); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", out)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	if exp == "all" {
		if out != "" {
			// serve, join-scale and plan write differently shaped reports;
			// under "all" a later one would silently overwrite an earlier one.
			return fmt.Errorf("-out requires a single experiment (serve, join-scale or plan), not all")
		}
		for _, name := range []string{
			"fig2", "fig3", "fig4", "updates", "indexes", "lsh", "join",
			"moving", "simstep", "mesh", "ablation-resolution", "ablation-advisor",
			"parallel", "cache-layout", "serve", "join-scale", "plan", "cluster",
		} {
			if err := runOne(name, ""); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(exp, out)
}
