// Command bench is the repository's performance benchmark: it builds
// cmd/spatialserver and cmd/spatialcluster, runs each as a subprocess, drives
// it over loopback HTTP from this one generator process, checks the replies
// against its own oracle, and prints every metric by name with its unit.
//
//	bash bench/run.sh -seed 1                     all five workloads
//	bash bench/run.sh -seed 1 -trace 1            the per-layer traced run
//	bash bench/run.sh -workload scan -seed 1      one workload
//	bash bench/run.sh -compare a.jsonl b.jsonl    two result sets against the bounds
//
// See README.md in this directory for the metrics and what each is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Fixed phases of one workload run. The measured window comes from -seconds
// (BENCHMARK.json's run_seconds under the driver) and is identical on every
// commit.
const (
	warmupSeconds  = 3
	setupRepeats   = 3
	restartDrillsN = 7
	// runBudget is the hard stop of one invocation: whatever still runs then
	// is killed and the run fails without a result.
	runBudget = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters, so the smoke test
// can drive a whole run in process.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("bench", flag.ContinueOnError)
	flag.SetOutput(stderr)
	var (
		workload = flag.String("workload", "", "run one workload (lookup|scan|join|timestep|cluster); empty runs all five")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same dataset and request streams")
		seconds  = flag.Int("seconds", 10, "measured window per workload, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the single-goroutine per-layer traced run instead of the workloads")
		root     = flag.String("root", "..", "repository root (run.sh passes it)")
		smoke    = flag.Bool("smoke", false, "tiny run for tests: 2 000 items, 1 s windows, fewer drills")
		out      = flag.String("out", "", "result file to append one JSON line per run to (default bench/out/results.jsonl)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments against the bounds")
	)
	if err := flag.Parse(args); err != nil {
		return 2
	}

	// The generator shares two cores with the server it measures, so its own
	// collector runs a quarter as often as the default: about 4 % more
	// requests a second on lookup, at a few hundred MiB of generator heap.
	debug.SetGCPercent(400)
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(*root, flag.Arg(0), flag.Arg(1), stdout, stderr)
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}

	p := runParams{
		seed: *seed, items: fullItems,
		warmup: warmupSeconds * time.Second, window: time.Duration(*seconds) * time.Second,
		setups: setupRepeats, restart: restartDrillsN,
	}
	if *smoke {
		p.items, p.warmup, p.window, p.setups, p.restart = smokeItems, 200*time.Millisecond, time.Second, 1, 2
	}
	var specs []workloadSpec
	if *workload == "" {
		specs = workloads
	} else {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{w}
	}

	h, err := newHarness(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Every exit path releases the subprocesses and temporary directories:
	// normal return, a signal, and the watchdog for a run that hangs.
	defer h.cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	budget := runBudget
	if *workload == "" && *trace == 0 {
		budget *= time.Duration(len(specs))
	}
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-finished:
			return
		case <-sigs:
			fmt.Fprintln(stderr, "bench: interrupted")
		case <-time.After(budget):
			fmt.Fprintln(stderr, "bench: run exceeded its time budget")
		}
		h.cleanup()
		os.Exit(1)
	}()

	outDir := filepath.Join(h.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	resultPath := *out
	if resultPath == "" {
		resultPath = filepath.Join(outDir, "results.jsonl")
	}
	env := environment(h.root)
	fmt.Fprintf(stdout, "bench: %s\n", env)

	if *trace != 0 {
		tr, err := runTrace(h, p, filepath.Join(outDir, "trace.jsonl"), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench: trace:", err)
			return 1
		}
		printRun(stdout, tr)
		if err := appendResult(resultPath, env, tr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return finish(h.root, tr, *workload != "", stdout, stderr)
	}

	code := 0
	for _, w := range specs {
		fmt.Fprintf(stdout, "workload %s: seed=%d readers=%d joiners=%d updaters=%d warm-up=%v window=%v\n",
			w.name, p.seed, w.readers, b2i(w.joins), b2i(w.updates), p.warmup, p.window)
		res, err := runWorkload(h, w, p)
		if err != nil {
			// A workload that cannot be set up or measured fails whole.
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			return 1
		}
		printRun(stdout, res)
		if err := appendResult(resultPath, env, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if c := finish(h.root, res, *workload != "", stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finish prints the driver's result line for a single-workload run and
// turns any failed operation into a non-zero exit.
func finish(root string, res *runResult, driverLine bool, stdout, stderr io.Writer) int {
	if driverLine {
		bf, err := loadBenchmarkFile(root)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		specs := bf.EndToEnd
		if res.Workload == traceWorkload {
			specs = bf.PerLayer
		}
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]metric, len(specs))}
		for _, ms := range specs {
			m, ok := res.Metrics[ms.Name]
			if !ok {
				fmt.Fprintf(stderr, "bench: metric %s of BENCHMARK.json was not measured\n", ms.Name)
				return 1
			}
			line.Metrics[ms.Name] = m
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// environment describes where the numbers were taken.
func environment(root string) map[string]string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// printRun prints one workload's metrics by name with units, then every
// timing with its sample count, median and supported tail.
func printRun(stdout io.Writer, res *runResult) {
	printMetrics(stdout, res.Metrics)
	names := make([]string, 0, len(res.Timings))
	for name := range res.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := res.Timings[name]
		fmt.Fprintf(stdout, "  timing %-8s n=%-7d p50=%.1fus p%.4g=%.1fus\n", name, t.N, t.P50, t.TailQ*100, t.Tail)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(stdout, "  attempted=%d failed=%d failed_frac=%g\n", res.Attempted, res.Failed, frac)
	for _, e := range res.Errors {
		fmt.Fprintf(stdout, "  error: %s\n", e)
	}
}

func printMetrics(stdout io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-36s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// appendResult adds one run to the result file: one JSON object per line.
func appendResult(path string, env map[string]string, res *runResult) error {
	rec := struct {
		Schema string            `json:"schema"`
		Env    map[string]string `json:"env"`
		*runResult
	}{"spatialsim-bench/1", env, res}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
