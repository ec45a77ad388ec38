package httpapi

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// Backend is what the HTTP surface serves. cmd/spatialserver adapts a
// serve.Store to it, cmd/spatialcluster a cluster coordinator.
type Backend interface {
	// Query runs one OpRange, OpKNN or OpJoin read. A range or kNN answer
	// is appended to req.Buf, which the handler lends from index.GetItems:
	// Result.Items must extend it (or an array grown from it), never alias
	// memory anyone else holds, because the handler pools that array again
	// once the reply is written.
	Query(req serve.Request) Result
	// Apply publishes one update batch and returns the epoch it became.
	Apply(ctx context.Context, batch []serve.Update) (uint64, error)
	// Stats is the /v1/stats reply.
	Stats() any
	// RetryAfter is how long a client told to back off should wait.
	RetryAfter() time.Duration
}

// Result is one read as the handlers reply it.
type Result struct {
	Epoch uint64
	// Items holds a range or kNN answer.
	Items []index.Item
	// Pairs, JoinItems (how many items were joined) and JoinCount (the
	// exact number of result pairs, of which Pairs holds the first) hold a
	// join's.
	Pairs     []join.Pair
	JoinItems int
	JoinCount int
	// Err fails the read; errorStatuses maps it onto the reply.
	Err error
	// Detail is the back end's own part of the reply.
	Detail Detail
}

// Detail is what a back end adds to a read's reply and slow-query record.
type Detail interface {
	// AppendFields appends the back end's reply fields in wire order, after
	// the shared ones and before the trace.
	AppendFields(b *Reply, p Params)
	// LogAttrs are the back end's slow-query record attributes.
	LogAttrs() []any
}

// Server is the one HTTP surface: the shared /v1 routes over Backend, the
// back end's own routes and the observability hooks. Without Metrics and
// Logger it serves the same wire format uninstrumented.
type Server struct {
	Backend Backend
	// Routes are the back end's own endpoints, keyed by their path under /v1.
	Routes map[string]http.Handler
	// Metrics, when set, serves /metrics and feeds the per-route HTTP series.
	Metrics *obs.Registry
	// Logger records every query slower than SlowQuery (0: none).
	Logger    *slog.Logger
	SlowQuery time.Duration
}

// reads are the read routes, by name.
var reads = []struct {
	name string
	op   serve.Op
}{{"range", serve.OpRange}, {"knn", serve.OpKNN}, {"join", serve.OpJoin}}

// Handler wires the routes:
//
//	GET  /v1/range?minx=&miny=&minz=&maxx=&maxy=&maxz=[&limit=]
//	GET  /v1/knn?x=&y=&z=[&k=]
//	GET  /v1/join?eps=[&algo=auto|grid][&workers=][&limit=]
//	GET  /v1/query?op=range|knn|join&...   the same reads, by op
//	POST /v1/update  {"upserts":[{"id":..,"min":[..],"max":[..]}],"deletes":[..]}
//	GET  /v1/stats
//	GET  /v1/healthz
//	GET  /metrics                          with Metrics: Prometheus text
//
// A join reply's count is exact, and only its first ?limit= pairs (in
// canonical order) are built. Every read takes ?timeout= (a Go duration,
// e.g. 50ms, tightening the back end's deadline) and ?plan=1 where the back
// end reports a plan; reads and updates take ?trace=1, which adds the
// request's span tree as "trace".
// Errors are {"error":{"code","message"}}, and every response carries an
// X-Request-Id: the client's, or a generated one.
func (s *Server) Handler() http.Handler {
	routes := map[string]http.Handler{
		"/v1/query":  Handler(s.query),
		"/v1/update": Handler(s.update),
		"/v1/stats":  http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, s.Backend.Stats()) }),
		"/v1/healthz": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		}),
	}
	for _, rd := range reads {
		routes["/v1/"+rd.name] = Handler(func(w http.ResponseWriter, r *http.Request, p Params) {
			s.read(rd.name, rd.op, w, r, p)
		})
	}
	for path, h := range s.Routes {
		routes["/v1"+path] = h
	}
	mux := http.NewServeMux()
	for path, h := range routes {
		mux.Handle(path, s.instrument(path, h))
	}
	if s.Metrics != nil {
		mux.Handle("/metrics", MetricsHandler(s.Metrics))
	}
	return withRequestID(mux)
}

func (s *Server) query(w http.ResponseWriter, r *http.Request, p Params) {
	op := p.Get("op")
	for _, rd := range reads {
		if rd.name == op {
			s.read(rd.name, rd.op, w, r, p)
			return
		}
	}
	Error(w, http.StatusBadRequest, "bad_request", "op must be range, knn or join")
}

// read parses, runs and answers one read. A range reply keeps at most
// ?limit= items; a join reply at most ?limit= pairs, with the full count.
func (s *Server) read(name string, op serve.Op, w http.ResponseWriter, r *http.Request, p Params) {
	req := serve.Request{Op: op}
	var limit int
	var err error
	switch op {
	case serve.OpRange:
		req.Query, limit, err = p.Range()
	case serve.OpKNN:
		req.Point, req.K, err = p.KNN()
	default:
		req.Join, err = p.Join()
		limit = req.Join.Limit
	}
	if err != nil {
		BadRequest(w, err)
		return
	}
	ctx, cancel, err := p.Context(r.Context())
	if err != nil {
		BadRequest(w, err)
		return
	}
	defer cancel()
	ctx, tr := maybeTrace(ctx, r, p)
	req.Ctx = ctx
	var buf *[]index.Item
	if op != serve.OpJoin {
		buf = index.GetItems()
		req.Buf = *buf
	}
	start := time.Now()
	res := s.Backend.Query(req)
	if buf != nil {
		// Items extends the lent buffer (or an array grown from it); it goes
		// back once the reply bytes are written, on every path.
		defer index.PutItems(buf, res.Items)
	}
	s.logSlow(w, name, time.Since(start), res)
	if res.Err != nil {
		s.fail(w, res.Err)
		return
	}
	if op == serve.OpJoin {
		WriteJoin(w, p, res, req.Join.Eps, limit, tr)
		return
	}
	items := res.Items
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	WriteQuery(w, p, res, items, tr)
}

// WriteQuery answers a range/kNN read: epoch, count, items, the back end's
// fields, then — with ?trace=1 — trace.
func WriteQuery(w http.ResponseWriter, p Params, res Result, items []index.Item, tr *obs.Trace) {
	sendRead(w, p, NewReply(res.Epoch, items), res, tr)
}

// WriteJoin answers a join read: epoch, algorithm, eps, items, count,
// truncated, up to limit pairs as [a, b] tuples, the back end's fields,
// then — with ?trace=1 — trace.
func WriteJoin(w http.ResponseWriter, p Params, res Result, eps float64, limit int, tr *obs.Trace) {
	sendRead(w, p, newJoinReply(res, eps, limit), res, tr)
}

// sendRead appends the back end's fields and the trace to a read reply, then
// sends it.
func sendRead(w http.ResponseWriter, p Params, b *Reply, res Result, tr *obs.Trace) {
	res.Detail.AppendFields(b, p)
	if t := tr.Finish(); t != nil {
		b.JSON("trace", t)
	}
	b.Send(w)
}

func (s *Server) update(w http.ResponseWriter, r *http.Request, p Params) {
	ctx, tr := maybeTrace(r.Context(), r, p)
	if tr != nil {
		r = r.WithContext(ctx)
	}
	batch, ok := readUpdate(w, r, MaxUpdateBody)
	if !ok {
		return
	}
	epoch, err := s.Backend.Apply(ctx, batch)
	if err != nil {
		s.fail(w, err)
		return
	}
	WriteJSON(w, UpdateResponse{Epoch: epoch, Applied: len(batch), Trace: tr.Finish()})
}

// errorStatuses maps a failed read or write onto its reply, first match
// wins; anything else answers 500 internal. A retry class tells the client
// to come back after the back end's RetryAfter.
var errorStatuses = []struct {
	err    error
	status int
	code   string
	retry  bool
}{
	// First: a swap aborts on whatever its node stage failed with.
	{serve.ErrSwapAborted, http.StatusServiceUnavailable, "swap_aborted", true},
	{serve.ErrOverload, http.StatusServiceUnavailable, "overloaded", true},
	{serve.ErrUnavailable, http.StatusServiceUnavailable, "unavailable", true},
	{serve.ErrNotBootstrapped, http.StatusConflict, "conflict", false},
	{serve.ErrBadRequest, http.StatusBadRequest, "bad_request", false},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded", false},
	{context.Canceled, http.StatusServiceUnavailable, "canceled", false},
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	for _, c := range errorStatuses {
		if errors.Is(err, c.err) {
			if c.retry {
				w.Header().Set("Retry-After", strconv.FormatInt(int64(s.Backend.RetryAfter()/time.Second), 10))
			}
			Error(w, c.status, c.code, err.Error())
			return
		}
	}
	Error(w, http.StatusInternalServerError, "internal", err.Error())
}

// requestCounter numbers generated request ids within the process.
var requestCounter atomic.Uint64

// withRequestID stamps every response with an X-Request-Id header, echoing a
// client-provided id or generating a process-unique one, so a query can be
// correlated across client logs, server logs and stats.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = "req-" + strconv.FormatUint(requestCounter.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r)
	})
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

// instrument wraps one route with the HTTP-layer series: a latency histogram
// and per-status request counters. The histogram and the 200 counter are
// resolved here, once; other codes are rare enough to resolve through the
// registry when they happen.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	if s.Metrics == nil {
		return h
	}
	hist := s.Metrics.Histogram(obs.Name("spatial_http_request_seconds", "route", route))
	ok := s.Metrics.Counter(obs.Name("spatial_http_requests_total", "route", route, "code", "200"))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sr, r)
		hist.Observe(time.Since(start))
		if sr.status == http.StatusOK {
			ok.Inc()
			return
		}
		s.Metrics.Counter(obs.Name("spatial_http_requests_total",
			"route", route, "code", strconv.Itoa(sr.status))).Inc()
	})
}

// maybeTrace attaches a fresh span tree to the context when the request opted
// in with ?trace=1. The returned trace is nil otherwise; Finish on a nil
// trace returns nil, so callers thread it unconditionally.
func maybeTrace(ctx context.Context, r *http.Request, p Params) (context.Context, *obs.Trace) {
	if !p.Flag("trace") {
		return ctx, nil
	}
	t := obs.NewTrace(r.URL.Path)
	return obs.WithTrace(ctx, t), t
}

// logSlow emits the slow-query record: a query that ran longer than
// SlowQuery is logged with its request id and the back end's account of it
// (plan, errors, counters) — enough to explain where the time went without
// re-running it under ?trace=1.
func (s *Server) logSlow(w http.ResponseWriter, op string, elapsed time.Duration, res Result) {
	if s.Logger == nil || s.SlowQuery <= 0 || elapsed < s.SlowQuery {
		return
	}
	attrs := append([]any{
		"request_id", w.Header().Get("X-Request-Id"),
		"op", op,
		"elapsed", elapsed,
		"epoch", res.Epoch,
	}, res.Detail.LogAttrs()...)
	if res.Err != nil {
		attrs = append(attrs, "error", res.Err.Error())
	}
	s.Logger.Warn("slow query", attrs...)
}

// MetricsHandler serves the registry in the Prometheus text exposition
// format.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// ServeUntilSignal serves h on ln until the listener fails or a
// SIGINT/SIGTERM arrives, then shuts down gracefully: the listener stops
// accepting, in-flight requests get the drain budget to finish (then are
// cut), and closeBackend runs — for a durable back end, the final snapshot
// that makes the restart recoverable without WAL replay.
func ServeUntilSignal(h http.Handler, ln net.Listener, drain time.Duration, logger *slog.Logger, closeBackend func()) error {
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	logger.Info("shutdown signal received, draining", "budget", drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain budget exhausted, closing remaining connections", "err", err)
		srv.Close()
	}
	closeBackend()
	logger.Info("graceful shutdown complete")
	return nil
}
