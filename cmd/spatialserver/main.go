// Command spatialserver fronts the sharded, epoch-versioned serving store
// (internal/serve) with HTTP/JSON endpoints. It bootstraps a synthetic
// dataset, publishes the first epoch, and then serves range/kNN queries while
// accepting update batches that swap in new epochs without ever blocking
// readers — the paper's freeze-then-query phase split, turned into a server.
//
// With -data-dir the store is durable: update batches are journaled to a
// WAL, published epochs are snapshotted to page-aligned segment files in the
// background, and a restart recovers the newest complete epoch (replaying
// the WAL tail) before serving — answering with the same epoch numbers and
// results it would have before the restart.
//
// Usage:
//
//	spatialserver -addr :8080 -elements 100000 -shards 8
//	spatialserver -max-inflight 256 -cache 4096
//	spatialserver -data-dir /var/lib/spatialsim -elements 0
//
// Endpoints: GET /v1/range, /v1/knn, /v1/join, /v1/query, /v1/stats,
// /v1/healthz and POST /v1/update (internal/httpapi, the surface
// spatialcluster serves too), plus the store's own POST /v1/snapshot and
// GET /v1/recovery (see newServer).
//
// The server degrades gracefully under pressure: -deadline/-join-deadline set
// per-class query deadlines (tightened per request with ?timeout=),
// -max-queued bounds the admission queue before requests are shed with 503 +
// Retry-After, and SIGINT/SIGTERM trigger a graceful shutdown — the listener
// drains for -drain, then the store closes with a final durable snapshot.
//
// Observability surface (see internal/obs):
//
//   - GET /metrics serves the Prometheus text exposition: per-query-class
//     latency histograms (spatial_query_seconds{class=...}) with
//     p50/p90/p99/p999 rows, the paper's four cost categories as
//     spatial_cost_seconds_total{category=...}, robustness counters (sheds,
//     deadline expiries, degraded replies, breaker trips, fault injections),
//     cache and epoch lifecycle series, per-route HTTP series and Go runtime
//     gauges;
//   - ?trace=1 on any /v1 query or update endpoint adds a "trace" span tree
//     to the reply — admission, cache lookup, per-shard
//     fan-out with instrument counter deltas, merge, WAL append and freeze;
//   - -debug-addr starts a second listener serving /debug/pprof and /metrics
//     so profiling never competes with queries for the serving port;
//   - -slow-query logs queries over the threshold through log/slog with the
//     request id, executed plan, shard errors and counter breakdown. All
//     server logs are structured (log/slog); every request is correlated by
//     its X-Request-Id (client-provided or generated).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialserver:", err)
		os.Exit(1)
	}
}

// run builds the store from flags and serves until the listener fails or a
// shutdown signal arrives; tests exercise newServer directly instead of
// binding a port.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spatialserver", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		elements    = fs.Int("elements", 100000, "bootstrap dataset size (0 starts empty)")
		shards      = fs.Int("shards", 0, "STR layout size: a cut makes up to 16 tiles per shard, and every non-empty tile serves as one shard of the epoch (0 = GOMAXPROCS)")
		workers     = fs.Int("workers", 0, "epoch build goroutines (0 = GOMAXPROCS)")
		maxInflight = fs.Int("max-inflight", 0, "admission-control bound on in-flight queries (0 = 4x GOMAXPROCS)")
		indexName   = fs.String("index", "rtree", "shard family: only rtree is served (the flag stays for callers that pass -index rtree)")
		cacheSize   = fs.Int("cache", 0, "epoch result-cache entries per epoch (0 disables caching)")
		seed        = fs.Int64("seed", 1, "bootstrap dataset seed")
		dataDir     = fs.String("data-dir", "", "durable epoch store directory (empty = in-memory only)")
		snapEvery   = fs.Int("snapshot-every", 1, "persist every Nth published epoch (durable mode)")
		serving     = fs.String("serving", "heap", "durable-mode recovery read path: heap (read the segment into memory, checksum it and overlay its shards) or mapped (zero-copy mmap of the segment, O(open) restart)")
		maxQueued   = fs.Int("max-queued", 0, "admission queue bound before requests are shed with 503 (0 = 4x max-inflight)")
		deadline    = fs.Duration("deadline", 0, "default deadline for range/knn queries (0 = none; ?timeout= overrides)")
		joinDead    = fs.Duration("join-deadline", 0, "default deadline for joins (0 = none)")
		drain       = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain budget for in-flight requests")
		debugAddr   = fs.String("debug-addr", "", "separate listen address for pprof and /metrics (empty disables)")
		slowQuery   = fs.Duration("slow-query", 0, "log queries slower than this threshold with plan and counter detail (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(stdout, nil))

	reg := obs.NewRegistry()
	obs.RegisterRuntimeGauges(reg)

	cfg := serve.Config{
		Metrics:       reg,
		Shards:        *shards,
		Workers:       *workers,
		MaxInFlight:   *maxInflight,
		MaxQueued:     *maxQueued,
		CacheEntries:  *cacheSize,
		SnapshotEvery: *snapEvery,
		Deadlines: serve.Deadlines{
			Range: *deadline,
			KNN:   *deadline,
			Join:  *joinDead,
		},
	}
	if *indexName != "rtree" {
		return fmt.Errorf("unknown shard family %q: spatialserver serves rtree only (the other families run in spatialbench -exp indexes)", *indexName)
	}
	switch serve.ServingMode(*serving) {
	case serve.ServingHeap, serve.ServingMapped:
		cfg.Serving = serve.ServingMode(*serving)
	default:
		return fmt.Errorf("unknown -serving mode %q (heap|mapped)", *serving)
	}
	if *dataDir != "" {
		ps, err := persist.Open(*dataDir, persist.Options{})
		if err != nil {
			return err
		}
		defer ps.Close()
		cfg.Persist = ps
	}
	store, err := serve.Open(cfg)
	if err != nil {
		return err
	}
	defer store.Close()

	if rec := store.Recovery(); rec.Recovered {
		logger.Info("recovered persisted state",
			"epoch", rec.Epoch, "items", rec.Items, "dir", *dataDir, "replayed_batches", rec.ReplayedBatches,
			"serving", string(rec.Serving), "zero_copy_shards", rec.ZeroCopyShards)
	}

	if *elements > 0 && store.Current().Len() == 0 {
		u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
		d := datagen.GenerateUniform(datagen.UniformConfig{N: *elements, Universe: u, Seed: *seed})
		items := make([]index.Item, d.Len())
		for i := range d.Elements {
			items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
		}
		epoch, err := store.Bootstrap(items)
		if err != nil {
			return err
		}
		logger.Info("bootstrapped dataset", "elements", len(items), "epoch", epoch)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		defer dln.Close()
		go func() {
			if err := http.Serve(dln, newDebugMux(reg)); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("debug server failed", "err", err)
			}
		}()
		logger.Info("debug server listening", "addr", dln.Addr().String(), "endpoints", "/debug/pprof /metrics")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "index", *indexName, "addr", ln.Addr().String(),
		"endpoints", "/v1/{range,knn,join,query,update,snapshot,recovery,stats,healthz} /metrics")
	srv := newServer(store)
	srv.Metrics, srv.Logger, srv.SlowQuery = reg, logger, *slowQuery
	return httpapi.ServeUntilSignal(srv.Handler(), ln, *drain, logger, store.Close)
}

// newDebugMux builds the -debug-addr surface: the pprof profile endpoints
// plus a second /metrics exposition, kept off the serving listener so
// profiling traffic cannot compete with queries for the serving port.
func newDebugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", httpapi.MetricsHandler(reg))
	return mux
}
