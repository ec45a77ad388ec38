package main

// HTTP-layer observability: structured logging keyed by X-Request-Id, the
// Prometheus /metrics endpoint, per-route HTTP series, the ?trace=1 span-tree
// plumbing, the slow-query log and the -debug-addr pprof surface. Everything
// here is nil-safe — newHandler without options serves the exact same wire
// format with none of the instrumentation.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"spatialsim/internal/httpapi"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// serverObs bundles the observability hooks of the HTTP layer. A nil
// *serverObs (the plain newHandler path and most tests) disables all of it.
type serverObs struct {
	reg       *obs.Registry
	logger    *slog.Logger
	slowQuery time.Duration

	// httpSeconds is resolved once per route at wiring time (see instrument
	// for the request counters).
	httpSeconds map[string]*obs.Histogram
}

// newServerObs wires the HTTP-layer hooks. reg and logger may each be nil
// independently (metrics without logging, logging without metrics).
func newServerObs(reg *obs.Registry, logger *slog.Logger, slowQuery time.Duration) *serverObs {
	return &serverObs{
		reg:         reg,
		logger:      logger,
		slowQuery:   slowQuery,
		httpSeconds: make(map[string]*obs.Histogram),
	}
}

// newLogger builds the process logger used for startup, shutdown and
// slow-query records: slog text lines on the server's output writer.
func newLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}

// statusRecorder captures the response status for the HTTP metrics series.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route handler with the HTTP-layer series: a per-route
// latency histogram and per-(route, status) request counters. route is the
// canonical path label shared by the /v1 route and its legacy alias. The
// histogram and the 200 counter are resolved here, once; other codes are
// rare enough to resolve through the registry when they happen.
func (so *serverObs) instrument(route string, h http.Handler) http.Handler {
	if so == nil || so.reg == nil {
		return h
	}
	hist := so.httpSeconds[route]
	if hist == nil {
		hist = so.reg.Histogram(obs.Name("spatial_http_request_seconds", "route", route))
		so.httpSeconds[route] = hist
	}
	ok := so.reg.Counter(obs.Name("spatial_http_requests_total", "route", route, "code", "200"))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sr, r)
		hist.Observe(time.Since(start))
		if sr.status == http.StatusOK {
			ok.Inc()
			return
		}
		so.reg.Counter(obs.Name("spatial_http_requests_total",
			"route", route, "code", strconv.Itoa(sr.status))).Inc()
	})
}

// maybeTrace attaches a fresh span tree to the context when the request opted
// in with ?trace=1. The returned trace is nil otherwise; Finish on a nil
// trace returns nil, so callers thread it unconditionally.
func maybeTrace(ctx context.Context, r *http.Request, p httpapi.Params) (context.Context, *obs.Trace) {
	if !p.Flag("trace") {
		return ctx, nil
	}
	t := obs.NewTrace(r.URL.Path)
	return obs.WithTrace(ctx, t), t
}

// observeQuery emits the slow-query log record: a query that ran longer than
// the -slow-query threshold is logged with its request id, the executed plan,
// the per-shard errors and the instrument counter breakdown — enough to
// explain where the time went without re-running the query under ?trace=1.
func (so *serverObs) observeQuery(w http.ResponseWriter, op string, elapsed time.Duration, rep serve.Reply) {
	if so == nil || so.logger == nil || so.slowQuery <= 0 || elapsed < so.slowQuery {
		return
	}
	attrs := []any{
		"request_id", w.Header().Get("X-Request-Id"),
		"op", op,
		"elapsed", elapsed,
		"epoch", rep.Epoch,
		"family", rep.Plan.Family,
		"cache_hit", rep.Plan.CacheHit,
		"fan_out", rep.Plan.FanOut,
		"counters", rep.Counters,
	}
	if rep.Plan.Algorithm != "" {
		attrs = append(attrs, "algorithm", rep.Plan.Algorithm)
	}
	if rep.Err != nil {
		attrs = append(attrs, "error", rep.Err.Error())
	}
	if rep.Degraded {
		attrs = append(attrs, "degraded", true, "shard_errors", rep.ShardErrors)
	}
	so.logger.Warn("slow query", attrs...)
}

// metricsHandler serves the registry in the Prometheus text exposition
// format.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
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
	if reg != nil {
		mux.HandleFunc("/metrics", metricsHandler(reg))
	}
	return mux
}
