// Command spatialcluster runs the distributed serving harness: an in-process
// fleet of 2-3 serve.Store nodes (each with its own persist directory when
// -data-dir is set — segment files are the replication unit) behind the
// cluster coordinator, fronted by the same HTTP surface as the single-node
// spatialserver (internal/httpapi).
//
// Usage:
//
//	spatialcluster -addr :8090 -nodes 3 -replication 2 -elements 100000
//	spatialcluster -data-dir /var/lib/spatialsim-cluster -hedge-after 20ms
//
// Endpoints (all under /v1):
//
//	GET  /v1/range?minx=..&maxz=..      scatter/gather range (task-launch order)
//	GET  /v1/knn?x=&y=&z=&k=            scatter/gather k nearest
//	GET  /v1/join?eps=[&algo=auto|grid][&limit=]
//	                                    cluster-wide epsilon self-join (the
//	                                    grid): the exact count, the first
//	                                    limit pairs
//	GET  /v1/query?op=range|knn|join    the same reads, by op
//	POST /v1/update                     two-phase epoch-consistent swap
//	GET  /v1/stats                      coordinator + per-node state
//	GET  /v1/placement                  the tile map
//	POST /v1/nodes/kill?name=n0         failure drill: node unreachable
//	POST /v1/nodes/revive?name=n0       bring it back
//	GET  /v1/healthz                    liveness
//	GET  /metrics                       spatial_cluster_* + per-node series
//
// Every request gets an X-Request-Id and per-route HTTP series, ?trace=1
// returns the coordinator's span tree, and SIGINT/SIGTERM drain in-flight
// requests for 5s, then close the coordinator and every node store (with a
// final snapshot each under -data-dir, so a restart replays no WAL).
//
// Degradation contract: when every owner of some tile is unreachable, query
// replies carry "degraded":true plus per-node error detail — correct but
// partial, never wrong. Kill/revive exist so the contract can be drilled
// from the outside (the CI cluster-smoke job does exactly that).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

// drainBudget is how long a shutdown waits for in-flight requests
// (spatialserver's -drain default).
const drainBudget = 5 * time.Second

// recoveredItems gathers the union of every node's durable state (replicas
// overlap, so dedupe by ID; sorted for deterministic placement). Empty for
// fresh in-memory fleets. A node read that fails or comes back partial is
// an error: taken for an empty or thinner fleet, it would re-bootstrap the
// cluster without the items it missed.
func recoveredItems(nds []*cluster.Node) ([]index.Item, error) {
	everything := geom.NewAABB(geom.V(-1e18, -1e18, -1e18), geom.V(1e18, 1e18, 1e18))
	seen := make(map[int64]index.Item)
	for _, n := range nds {
		rep := n.Store().Query(serve.Request{Op: serve.OpRange, Query: everything, NoCache: true})
		if rep.Err != nil {
			return nil, fmt.Errorf("reading node %s's recovered items: %w", n.Name(), rep.Err)
		}
		if rep.Degraded {
			return nil, fmt.Errorf("reading node %s's recovered items: partial read: %+v", n.Name(), rep.ShardErrors)
		}
		for _, it := range rep.Items {
			seen[it.ID] = it
		}
	}
	if len(seen) == 0 {
		return nil, nil
	}
	out := make([]index.Item, 0, len(seen))
	for _, it := range seen {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spatialcluster", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr        = fs.String("addr", ":8090", "listen address")
		nodes       = fs.Int("nodes", 3, "node instances in the fleet (2-3 typical)")
		replication = fs.Int("replication", 2, "owners per tile (1 = no replicas)")
		elements    = fs.Int("elements", 100000, "bootstrap dataset size (0 starts empty)")
		seed        = fs.Int64("seed", 1, "bootstrap dataset seed")
		shards      = fs.Int("shards", 0, "STR layout size per node: a cut makes up to 16 tiles per shard, and every non-empty tile serves as one shard of the node epoch (0 = GOMAXPROCS)")
		dataDir     = fs.String("data-dir", "", "per-node persist root (empty = in-memory; node i uses <dir>/node-i)")
		hedgeAfter  = fs.Duration("hedge-after", 20*time.Millisecond, "hedge replica queries for unresolved tiles after this delay (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be >= 1")
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntimeGauges(reg)

	trs := make([]cluster.Transport, *nodes)
	nds := make([]*cluster.Node, *nodes)
	for i := 0; i < *nodes; i++ {
		name := fmt.Sprintf("n%d", i)
		cfg := serve.Config{Shards: *shards}
		if *dataDir != "" {
			ps, err := persist.Open(filepath.Join(*dataDir, "node-"+name), persist.Options{})
			if err != nil {
				return err
			}
			defer ps.Close()
			cfg.Persist = ps
		}
		st, err := serve.Open(cfg)
		if err != nil {
			return fmt.Errorf("node %s: %w", name, err)
		}
		defer st.Close()
		nds[i] = cluster.NewNode(name, st)
		trs[i] = nds[i]
	}

	co, err := cluster.New(cluster.Config{
		Transports:  trs,
		Replication: *replication,
		HedgeAfter:  *hedgeAfter,
		Metrics:     reg,
	})
	if err != nil {
		return err
	}
	defer co.Close()

	recovered, err := recoveredItems(nds)
	if err != nil {
		return err
	}
	if len(recovered) > 0 {
		// The coordinator's placement and cluster epoch are process-local;
		// only the node stores are durable. A fleet restarted over its
		// persist directories re-bootstraps the view from the union of the
		// nodes' recovered items rather than generating fresh data (which
		// would blend with the durable state as an upsert batch).
		epoch, err := co.Bootstrap(recovered)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spatialcluster: recovered %d elements from %s across %d nodes (replication %d), cluster epoch %d\n",
			len(recovered), *dataDir, *nodes, *replication, epoch)
	} else if *elements > 0 {
		u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
		d := datagen.GenerateUniform(datagen.UniformConfig{N: *elements, Universe: u, Seed: *seed})
		items := make([]index.Item, d.Len())
		for i := range d.Elements {
			items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
		}
		epoch, err := co.Bootstrap(items)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spatialcluster: bootstrapped %d elements across %d nodes (replication %d), cluster epoch %d\n",
			len(items), *nodes, *replication, epoch)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spatialcluster: serving on %s\n", ln.Addr().String())
	return httpapi.ServeUntilSignal(newServer(co, nds, reg).Handler(), ln, drainBudget,
		slog.New(slog.NewTextHandler(stdout, nil)), func() {
			co.Close()
			for _, n := range nds {
				n.Store().Close()
			}
		})
}
