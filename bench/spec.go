package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workloadSpec is one fixed traffic mix against one server configuration.
type workloadSpec struct {
	name    string
	binary  string
	args    []string // besides -addr and, when durable, -data-dir
	durable bool     // runs on a data directory, ends with restart drills
	mix     [3]int   // percent range / knn / scan of each reading client
	readers int      // clients running the read mix
	joins   bool     // one client issuing joins back to back
	updates bool     // one client posting update batches back to back
	// tailQ is the quantile read_tail_us is read at, when the window has ten
	// samples beyond it: p99, except on timestep. There the median is ~100 us
	// and one read in a hundred waits out a 1-20 ms stall behind a freeze, so
	// p99 sits on the cliff between the two and differed by 20-30 % between
	// runs of one commit; p99.9 lies beyond the cliff and held within 5 %.
	tailQ float64
}

var storeArgs = []string{"-elements", "0", "-shards", "4", "-index", "rtree", "-cache", "0"}

// clusterPlacementSeedItems is how many uniform points spatialcluster
// generates for itself at start. A cluster refuses updates until it has been
// bootstrapped (its tile placement is computed once, from the bootstrap set),
// and the binary can only bootstrap from its own uniform generator; these
// points fix three equal x-slabs of the 0..100 universe and are then
// overwritten (IDs 0..2999) by the one load POST every workload uses.
const clusterPlacementSeedItems = 3000

// placementSeedItems keeps the seed set no larger than the dataset, so the
// load overwrites all of it (the smoke dataset is smaller than 3000).
func placementSeedItems(items int) int { return min(clusterPlacementSeedItems, items) }

// serverArgs returns the server's command line, apart from -addr and
// -data-dir, for a dataset of the given size.
func (w workloadSpec) serverArgs(items int) []string {
	args := append([]string(nil), w.args...)
	if w.binary == "spatialcluster" {
		args = append(args, "-elements", fmt.Sprint(placementSeedItems(items)))
	}
	return args
}

var workloads = []workloadSpec{
	{name: "lookup", binary: "spatialserver", args: storeArgs, mix: [3]int{75, 25, 0}, readers: clients, tailQ: 0.99},
	{name: "scan", binary: "spatialserver", args: storeArgs, mix: [3]int{0, 0, 100}, readers: clients, tailQ: 0.99},
	{name: "join", binary: "spatialserver", args: storeArgs, joins: true, tailQ: 0.99},
	{name: "timestep", binary: "spatialserver", args: append(append([]string(nil), storeArgs...), "-serving", "mapped"),
		durable: true, mix: [3]int{75, 25, 0}, readers: 1, updates: true, tailQ: 0.999},
	{name: "cluster", binary: "spatialcluster",
		args: []string{"-nodes", "3", "-replication", "2", "-shards", "2"},
		mix:  [3]int{50, 25, 25}, readers: clients, tailQ: 0.99},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one named metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// workloadScoped are the client-observed metrics only some workloads can
// report. The driver's schema has one end-to-end list that every workload
// must fill, so these cannot be listed in BENCHMARK.json; they are printed,
// written to the result file and held to these bounds by -compare.
var workloadScoped = []metricSpec{
	{Name: "range_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "range_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "knn_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "knn_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "scan_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "scan_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "join_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "restart_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_item", Unit: "bytes", Better: "lower", Bound: 0.01},
}
