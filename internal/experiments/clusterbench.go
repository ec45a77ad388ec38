package experiments

// E16 — distributed scatter/gather serving. The claim under test: a
// coordinator fanning out over an STR-partitioned fleet answers range, kNN
// and join queries identically to one store holding the whole dataset;
// cluster-wide swaps publish epoch-consistently (no reader ever sees a torn
// mix of generations, under concurrent swap load); and a node failure
// degrades reads to a correct subset with replication 1 but is absorbed
// completely with replication 2. The three properties are the distributed
// counterparts of the single-store guarantees earlier experiments pinned.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/serve"
)

// ClusterBenchConfig shapes the E16 run.
type ClusterBenchConfig struct {
	// Nodes is the fleet size (0 = 3).
	Nodes int
	// Replication is owners per tile for the conformance fleet (0 = 2).
	Replication int
	// Shards is the STR shard count per node epoch (0 = GOMAXPROCS).
	Shards int
	// SwapGens is how many cluster epochs the swap storm publishes (0 = 8).
	SwapGens int
	// SwapReaders is how many concurrent readers audit the storm (0 = 4).
	SwapReaders int
	// SwapItems is the storm's dataset size (0 = 1000; kept separate from
	// Elements because every generation re-stages the whole set).
	SwapItems int
}

func (c ClusterBenchConfig) withDefaults() ClusterBenchConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.SwapGens <= 0 {
		c.SwapGens = 8
	}
	if c.SwapReaders <= 0 {
		c.SwapReaders = 4
	}
	if c.SwapItems <= 0 {
		c.SwapItems = 1000
	}
	return c
}

// ClusterBenchResult is the E16 outcome.
type ClusterBenchResult struct {
	Elements    int
	Nodes       int
	Replication int
	Queries     int

	// Identical is true when the coordinator's range, kNN and join answers
	// matched the single store's exactly, query by query.
	Identical bool
	JoinPairs int
	// SingleQuery / ClusterQuery are workload wall totals (the fan-out tax).
	SingleQuery  time.Duration
	ClusterQuery time.Duration

	// Swap storm: SwapGens cluster publishes under SwapReaders concurrent
	// full scans. A torn epoch is any reply mixing generations or losing
	// items mid-swap; the two-phase protocol's promise is zero.
	SwapGens    int
	SwapReaders int
	TornEpochs  int
	StormReads  int64
	FinalEpoch  uint64

	// Kill drills. With replication 1 the killed node's tiles go dark:
	// DegradedCorrect requires the reply be marked degraded, be a proper
	// subset of the full answer, and contain no wrong items. With
	// replication 2 the same kill must be absorbed completely.
	DegradedCorrect bool
	DegradedCount   int
	FullCount       int
	ReplicasAbsorb  bool

	// OK is the E16 gate: identical answers, zero torn epochs, and both
	// failure drills behaving.
	OK bool
}

// ClusterBench runs E16 at the given scale.
func ClusterBench(s Scale, cfg ClusterBenchConfig) ClusterBenchResult {
	s = s.withDefaults()
	cfg = cfg.withDefaults()
	res := ClusterBenchResult{
		Elements:    s.Elements,
		Nodes:       cfg.Nodes,
		Replication: cfg.Replication,
		Queries:     s.Queries,
		SwapGens:    cfg.SwapGens,
		SwapReaders: cfg.SwapReaders,
		Identical:   true,
	}
	ctx := context.Background()

	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	d := datagen.GenerateUniform(datagen.UniformConfig{N: s.Elements, Universe: u, Seed: s.Seed})
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	queries := datagen.GenerateDataCenteredQueries(d, s.Queries, s.Selectivity*10, s.Seed+1)
	points := datagen.GenerateKNNQueries(s.Queries, u, s.Seed+2)

	newFleet := func(repl int, items []index.Item) (*cluster.Coordinator, []*cluster.Node, func()) {
		nodes := make([]*cluster.Node, cfg.Nodes)
		trs := make([]cluster.Transport, cfg.Nodes)
		for i := range nodes {
			st := mustServe(serve.Config{Shards: cfg.Shards, Workers: s.Workers})
			nodes[i] = cluster.NewNode(fmt.Sprintf("n%d", i), st)
			trs[i] = nodes[i]
		}
		co, err := cluster.New(cluster.Config{Transports: trs, Replication: repl, Workers: s.Workers})
		if err != nil {
			panic("experiments: clusterbench: " + err.Error())
		}
		if _, err := co.Bootstrap(items); err != nil {
			panic("experiments: clusterbench bootstrap: " + err.Error())
		}
		return co, nodes, func() {
			co.Close()
			for _, n := range nodes {
				n.Store().Close()
			}
		}
	}

	// Conformance: the coordinator versus one store holding everything.
	single := mustServe(serve.Config{Shards: cfg.Shards, Workers: s.Workers})
	single.Bootstrap(items)
	co, _, closeFleet := newFleet(cfg.Replication, items)

	buf := make([]index.Item, 0, 512)
	singleAnswers := make([][]int64, 0, 2*s.Queries)
	t0 := time.Now()
	for _, q := range queries {
		buf, _ = single.RangeAll(q, buf[:0])
		singleAnswers = append(singleAnswers, sortedIDs(buf))
	}
	for _, p := range points {
		buf, _ = single.KNN(p, 8, buf[:0])
		singleAnswers = append(singleAnswers, sortedIDs(buf))
	}
	res.SingleQuery = time.Since(t0)

	t0 = time.Now()
	for qi, q := range queries {
		rep := co.Range(ctx, q)
		if rep.Err != nil || rep.Degraded || !slices.Equal(sortedIDs(rep.Items), singleAnswers[qi]) {
			res.Identical = false
		}
	}
	for pi, p := range points {
		rep := co.KNN(ctx, p, 8)
		if rep.Err != nil || rep.Degraded || !slices.Equal(sortedIDs(rep.Items), singleAnswers[len(queries)+pi]) {
			res.Identical = false
		}
	}
	res.ClusterQuery = time.Since(t0)

	// Join conformance: the full pair sets must coincide.
	eps := 1.0
	srep := single.Query(serve.Request{Op: serve.OpJoin, Join: serve.JoinRequest{Eps: eps, Workers: s.Workers}})
	crep := co.Join(ctx, serve.JoinRequest{Eps: eps, Workers: s.Workers})
	if srep.Err != nil || crep.Err != nil || crep.Degraded || !samePairs(srep.Pairs, crep.Pairs) {
		res.Identical = false
	}
	res.JoinPairs = len(crep.Pairs)
	single.Close()
	closeFleet()

	// Swap storm: publish SwapGens generations (every item's box regrown per
	// generation) while SwapReaders full scans audit each reply for epoch
	// consistency — same item count, one generation per reply.
	res.TornEpochs = runSwapStorm(&res, s, cfg)

	// Kill drills (scanned over an everything box, so the counts are exact).
	everything := geom.NewAABB(geom.V(-1e6, -1e6, -1e6), geom.V(1e6, 1e6, 1e6))
	res.DegradedCorrect, res.DegradedCount, res.FullCount = killDrillDegraded(ctx, newFleet, items, everything)
	res.ReplicasAbsorb = killDrillAbsorbed(ctx, cfg, newFleet, items, everything)

	res.OK = res.Identical && res.TornEpochs == 0 && res.DegradedCorrect && res.ReplicasAbsorb
	return res
}

// runSwapStorm publishes generations under concurrent readers and returns the
// torn-reply count. Generation g items have Z half-extent 0.5 + g, so one
// consistent reply's boxes all share a Z size within a generation's tolerance;
// a torn view mixes sizes 2 apart (or drops items mid-swap).
func runSwapStorm(res *ClusterBenchResult, s Scale, cfg ClusterBenchConfig) int {
	n := cfg.SwapItems
	gen := func(g int) []index.Item {
		items := make([]index.Item, n)
		h := 0.5 + float64(g)
		for i := range items {
			c := geom.V(float64(i%100), float64((i/100)%100), float64(i/10000))
			items[i] = index.Item{ID: int64(i + 1), Box: geom.NewAABB(
				geom.V(c.X-0.4, c.Y-0.4, c.Z-h), geom.V(c.X+0.4, c.Y+0.4, c.Z+h))}
		}
		return items
	}
	nodes := make([]*cluster.Node, cfg.Nodes)
	trs := make([]cluster.Transport, cfg.Nodes)
	for i := range nodes {
		nodes[i] = cluster.NewNode(fmt.Sprintf("n%d", i), mustServe(serve.Config{Shards: cfg.Shards, Workers: s.Workers}))
		trs[i] = nodes[i]
	}
	co, err := cluster.New(cluster.Config{Transports: trs, Replication: cfg.Replication, Workers: s.Workers})
	if err != nil {
		panic("experiments: clusterbench storm: " + err.Error())
	}
	defer func() {
		co.Close()
		for _, nd := range nodes {
			nd.Store().Close()
		}
	}()
	if _, err := co.Bootstrap(gen(0)); err != nil {
		panic("experiments: clusterbench storm bootstrap: " + err.Error())
	}

	universe := geom.NewAABB(geom.V(-1e6, -1e6, -1e6), geom.V(1e6, 1e6, 1e6))
	var torn, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < cfg.SwapReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := co.Range(context.Background(), universe)
				if rep.Err != nil || len(rep.Items) != n {
					torn.Add(1)
					continue
				}
				reads.Add(1)
				want := rep.Items[0].Box.Size().Z
				for _, it := range rep.Items {
					// Generations are 2.0 apart in Z size; 0.5 absorbs float
					// noise while catching any cross-generation mix.
					if dz := it.Box.Size().Z - want; dz > 0.5 || dz < -0.5 {
						torn.Add(1)
						break
					}
				}
			}
		}()
	}
	for g := 1; g <= cfg.SwapGens; g++ {
		if _, err := co.Apply(itemsToUpserts(gen(g))); err != nil {
			panic("experiments: clusterbench storm apply: " + err.Error())
		}
	}
	close(stop)
	wg.Wait()
	res.StormReads = reads.Load()
	res.FinalEpoch = co.Epoch()
	return int(torn.Load())
}

func killDrillDegraded(ctx context.Context,
	newFleet func(int, []index.Item) (*cluster.Coordinator, []*cluster.Node, func()),
	items []index.Item, u geom.AABB) (ok bool, degraded, full int) {
	co, nodes, closeFleet := newFleet(1, items)
	defer closeFleet()
	fullRep := co.Range(ctx, u)
	full = len(fullRep.Items)
	fullIDs := make(map[int64]bool, full)
	for _, it := range fullRep.Items {
		fullIDs[it.ID] = true
	}
	nodes[1].Kill()
	rep := co.Range(ctx, u)
	degraded = len(rep.Items)
	if rep.Err != nil || !rep.Degraded || degraded == 0 || degraded >= full {
		return false, degraded, full
	}
	for _, it := range rep.Items {
		if !fullIDs[it.ID] {
			return false, degraded, full
		}
	}
	return true, degraded, full
}

func killDrillAbsorbed(ctx context.Context, cfg ClusterBenchConfig,
	newFleet func(int, []index.Item) (*cluster.Coordinator, []*cluster.Node, func()),
	items []index.Item, u geom.AABB) bool {
	repl := cfg.Replication
	if repl < 2 {
		repl = 2
	}
	co, nodes, closeFleet := newFleet(repl, items)
	defer closeFleet()
	nodes[1].Kill()
	rep := co.Range(ctx, u)
	return rep.Err == nil && !rep.Degraded && len(rep.Items) == len(items)
}

func itemsToUpserts(items []index.Item) []serve.Update {
	batch := make([]serve.Update, len(items))
	for i, it := range items {
		batch[i] = serve.Update{ID: it.ID, Box: it.Box}
	}
	return batch
}

func sortedIDs(items []index.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func samePairs(a, b []join.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := make([][2]int64, len(a)), make([][2]int64, len(b))
	for i := range a {
		ka[i] = [2]int64{a[i].A, a[i].B}
		kb[i] = [2]int64{b[i].A, b[i].B}
	}
	less := func(s [][2]int64) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(ka, less(ka))
	sort.Slice(kb, less(kb))
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// String renders the E16 result for the terminal.
func (r ClusterBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16 distributed scatter/gather: %d elements, %d nodes, replication %d, %d+%d queries\n",
		r.Elements, r.Nodes, r.Replication, r.Queries, r.Queries)
	fmt.Fprintf(&b, "  conformance vs single store: identical=%v (%d join pairs); wall single %v vs cluster %v\n",
		r.Identical, r.JoinPairs, r.SingleQuery.Round(time.Millisecond), r.ClusterQuery.Round(time.Millisecond))
	fmt.Fprintf(&b, "  swap storm: %d generations under %d readers, %d consistent reads, torn epochs: %d (final epoch %d)\n",
		r.SwapGens, r.SwapReaders, r.StormReads, r.TornEpochs, r.FinalEpoch)
	fmt.Fprintf(&b, "  kill drills: replication-1 degraded-but-correct=%v (%d of %d items), replication-2 absorbed=%v\n",
		r.DegradedCorrect, r.DegradedCount, r.FullCount, r.ReplicasAbsorb)
	fmt.Fprintf(&b, "  gate (identical answers, zero torn epochs, drills pass): ok=%v\n", r.OK)
	return b.String()
}

// clusterReport is the JSON shape of BENCH_PR10.json.
type clusterReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPUs        int    `json:"cpus"`

	Elements    int `json:"elements"`
	Nodes       int `json:"nodes"`
	Replication int `json:"replication"`
	Queries     int `json:"queries"`

	Identical          bool    `json:"identical_answers"`
	JoinPairs          int     `json:"join_pairs"`
	SingleQueryMicros  float64 `json:"single_query_total_us"`
	ClusterQueryMicros float64 `json:"cluster_query_total_us"`

	SwapGens    int    `json:"swap_generations"`
	SwapReaders int    `json:"swap_readers"`
	StormReads  int64  `json:"storm_reads"`
	TornEpochs  int    `json:"torn_epochs"`
	FinalEpoch  uint64 `json:"final_epoch"`

	DegradedCorrect bool `json:"degraded_correct"`
	DegradedCount   int  `json:"degraded_count"`
	FullCount       int  `json:"full_count"`
	ReplicasAbsorb  bool `json:"replicas_absorb"`

	OK bool `json:"ok"`
}

// WriteClusterBenchReport writes the E16 run as JSON (BENCH_PR10.json).
func WriteClusterBenchReport(path string, r ClusterBenchResult) error {
	rep := clusterReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),

		Elements:    r.Elements,
		Nodes:       r.Nodes,
		Replication: r.Replication,
		Queries:     r.Queries,

		Identical:          r.Identical,
		JoinPairs:          r.JoinPairs,
		SingleQueryMicros:  float64(r.SingleQuery) / float64(time.Microsecond),
		ClusterQueryMicros: float64(r.ClusterQuery) / float64(time.Microsecond),

		SwapGens:    r.SwapGens,
		SwapReaders: r.SwapReaders,
		StormReads:  r.StormReads,
		TornEpochs:  r.TornEpochs,
		FinalEpoch:  r.FinalEpoch,

		DegradedCorrect: r.DegradedCorrect,
		DegradedCount:   r.DegradedCount,
		FullCount:       r.FullCount,
		ReplicasAbsorb:  r.ReplicasAbsorb,

		OK: r.OK,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
