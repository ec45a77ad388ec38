package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// joinResponse is the wire shape of a join answer: the epoch and algorithm
// the join ran with, the total pair count, and (up to limit) result pairs as
// [a, b] id tuples.
type joinResponse struct {
	Epoch     uint64          `json:"epoch"`
	Algorithm string          `json:"algorithm"`
	Eps       float64         `json:"eps"`
	Items     int             `json:"items"`
	Count     int             `json:"count"`
	Truncated bool            `json:"truncated"`
	Pairs     [][2]int64      `json:"pairs"`
	Plan      *serve.PlanInfo `json:"plan,omitempty"`
	// Degraded marks a join cut short by its deadline: the pairs of the tasks
	// that ran are included (correct but incomplete). Omitted when complete.
	Degraded bool `json:"degraded,omitempty"`
	// Trace is the request's span tree, present only with ?trace=1.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// updateResponse reports the epoch the batch was published as.
type updateResponse struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	// Trace is the update's span tree (staging, WAL append, freeze+swap),
	// present only with ?trace=1.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// newHandler wires the store's serving surface into the versioned HTTP/JSON
// API. Canonical routes live under /v1/; every pre-versioning path is an
// alias onto the same handler, so legacy clients keep receiving byte-for-byte
// identical payloads.
//
//	GET  /v1/range?minx=&miny=&minz=&maxx=&maxy=&maxz=[&limit=][&plan=1]
//	GET  /v1/knn?x=&y=&z=&k=[&plan=1]                          k nearest
//	GET  /v1/join?eps=[&algo=auto|grid|touch|...][&workers=][&limit=][&plan=1]
//	     epoch-pinned epsilon self-join over the published shards
//	GET  /v1/query?op=range|knn|join&...   unified entry point (same params)
//	POST /v1/update  {"upserts":[{"id":..,"min":[..],"max":[..]}],"deletes":[..]}
//	POST /v1/snapshot  force a durable snapshot of the current epoch
//	GET  /v1/recovery  what the store recovered on boot (durable mode)
//	GET  /v1/stats                                             serving stats
//	GET  /v1/healthz                                           liveness
//
// plan=1 adds the store's plan report (index family, join algorithm, cache
// hit, shard fan-out) to the response; without it payloads are unchanged from
// the pre-planner wire format. Errors are always {"error":{"code","message"}}.
// Every response carries an X-Request-Id header (client-provided or
// generated).
//
// Robustness surface: every query endpoint accepts ?timeout= (a Go duration,
// e.g. 50ms) tightening the store's per-class default deadline. Overloaded
// requests are shed with 503 + Retry-After; a query whose deadline fires
// before any shard contributes answers 504 deadline_exceeded; a deadline that
// fires mid-fan-out answers 200 with "degraded":true and the partial result
// plus per-shard error detail.
//
// Observability surface: ?trace=1 on any /v1 query or update endpoint returns
// the request's span tree in the reply ("trace" field; omitted otherwise, so
// the wire format is unchanged). With metrics wired (newHandlerObs), GET
// /metrics serves the Prometheus text exposition and every route feeds
// per-route latency/status series.
func newHandler(store *serve.Store) http.Handler {
	return newHandlerObs(store, nil)
}

// newHandlerObs is newHandler with the HTTP-layer observability hooks
// attached (nil so serves the identical wire format uninstrumented).
func newHandlerObs(store *serve.Store, so *serverObs) http.Handler {
	mux := http.NewServeMux()

	rangeH := handleRange(store, so)
	knnH := handleKNN(store, so)
	joinH := handleJoin(store, so)
	queryH := func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		switch p.Get("op") {
		case "range":
			rangeH(w, r, p)
		case "knn":
			knnH(w, r, p)
		case "join":
			joinH(w, r, p)
		default:
			httpapi.Error(w, http.StatusBadRequest, "bad_request", "op must be range, knn or join")
		}
	}

	routes := map[string]http.Handler{
		"/range":    rangeH,
		"/knn":      knnH,
		"/join":     joinH,
		"/query":    httpapi.Handler(queryH),
		"/update":   handleUpdate(store),
		"/snapshot": handleSnapshot(store),
		"/recovery": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { httpapi.WriteJSON(w, store.Recovery()) }),
		"/stats":    http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { httpapi.WriteJSON(w, store.Stats()) }),
		"/healthz": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		}),
	}
	for path, h := range routes {
		h = so.instrument("/v1"+path, h)
		mux.Handle("/v1"+path, h) // canonical
		mux.Handle(path, h)       // legacy alias, byte-identical
	}
	if so != nil && so.reg != nil {
		mux.HandleFunc("/metrics", metricsHandler(so.reg))
	}

	return withRequestID(mux)
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

// writeReplyError maps a failed Reply onto the error envelope: shed requests
// answer 503 with a Retry-After estimating when the admission queue actually
// drains (queue depth x observed mean service time over the slot count, not
// a constant), expired deadlines answer 504, a client that went away answers
// 503, anything else is a 500.
func writeReplyError(w http.ResponseWriter, store *serve.Store, err error) {
	switch {
	case errors.Is(err, serve.ErrOverload):
		retry := int64(1)
		if store != nil {
			retry = int64(store.RetryAfterHint() / time.Second)
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		httpapi.Error(w, http.StatusServiceUnavailable, "overloaded", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpapi.Error(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		httpapi.Error(w, http.StatusServiceUnavailable, "canceled", err.Error())
	default:
		httpapi.Error(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func handleRange(store *serve.Store, so *serverObs) httpapi.Handler {
	return func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		box, limit, err := p.Range()
		if err != nil {
			httpapi.BadRequest(w, err)
			return
		}
		ctx, cancel, err := p.Context(r.Context())
		if err != nil {
			httpapi.BadRequest(w, err)
			return
		}
		defer cancel()
		ctx, tr := maybeTrace(ctx, r, p)
		start := time.Now()
		rep := store.Query(serve.Request{Op: serve.OpRange, Query: box, Ctx: ctx})
		so.observeQuery(w, "range", time.Since(start), rep)
		if rep.Err != nil {
			writeReplyError(w, store, rep.Err)
			return
		}
		items := rep.Items
		if limit > 0 && len(items) > limit {
			items = items[:limit]
		}
		writeQueryResponse(w, p, rep, items, tr)
	}
}

func handleKNN(store *serve.Store, so *serverObs) httpapi.Handler {
	return func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		pt, k, err := p.KNN()
		if err != nil {
			httpapi.BadRequest(w, err)
			return
		}
		ctx, cancel, err := p.Context(r.Context())
		if err != nil {
			httpapi.BadRequest(w, err)
			return
		}
		defer cancel()
		ctx, tr := maybeTrace(ctx, r, p)
		start := time.Now()
		rep := store.Query(serve.Request{Op: serve.OpKNN, Point: pt, K: k, Ctx: ctx})
		so.observeQuery(w, "knn", time.Since(start), rep)
		if rep.Err != nil {
			writeReplyError(w, store, rep.Err)
			return
		}
		writeQueryResponse(w, p, rep, rep.Items, tr)
	}
}

func handleJoin(store *serve.Store, so *serverObs) httpapi.Handler {
	return func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		jr, limit, err := p.Join()
		if err != nil {
			httpapi.BadRequest(w, err)
			return
		}
		ctx, cancel, err := p.Context(r.Context())
		if err != nil {
			httpapi.BadRequest(w, err)
			return
		}
		defer cancel()
		ctx, tr := maybeTrace(ctx, r, p)
		start := time.Now()
		rep := store.Query(serve.Request{Op: serve.OpJoin, Join: jr, Ctx: ctx})
		so.observeQuery(w, "join", time.Since(start), rep)
		if rep.Err != nil {
			writeReplyError(w, store, rep.Err)
			return
		}
		resp := joinResponse{
			Epoch:     rep.Epoch,
			Algorithm: rep.JoinAlgo.String(),
			Eps:       jr.Eps,
			Items:     rep.JoinItems,
			Count:     len(rep.Pairs),
			Truncated: len(rep.Pairs) > limit,
			Degraded:  rep.Degraded,
		}
		n := len(rep.Pairs)
		if n > limit {
			n = limit
		}
		resp.Pairs = make([][2]int64, n)
		for i := 0; i < n; i++ {
			resp.Pairs[i] = [2]int64{rep.Pairs[i].A, rep.Pairs[i].B}
		}
		if p.Flag("plan") {
			plan := rep.Plan
			resp.Plan = &plan
		}
		resp.Trace = tr.Finish()
		httpapi.WriteJSON(w, resp)
	}
}

func handleUpdate(store *serve.Store) httpapi.Handler {
	return func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		batch, ok := httpapi.ReadUpdate(w, r)
		if !ok {
			return
		}
		ctx, tr := maybeTrace(r.Context(), r, p)
		epoch := store.ApplyCtx(ctx, batch)
		httpapi.WriteJSON(w, updateResponse{Epoch: epoch, Applied: len(batch), Trace: tr.Finish()})
	}
}

func handleSnapshot(store *serve.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpapi.Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "snapshot requires POST")
			return
		}
		epoch, err := store.Snapshot()
		if err != nil {
			httpapi.Error(w, http.StatusConflict, "conflict", err.Error())
			return
		}
		httpapi.WriteJSON(w, map[string]uint64{"persisted_epoch": epoch})
	}
}

// writeQueryResponse answers a range/kNN query: epoch, count, items, then
// — each only when present — plan (with ?plan=1), degraded, shard_errors
// and trace (with ?trace=1).
func writeQueryResponse(w http.ResponseWriter, p httpapi.Params, rep serve.Reply, items []index.Item, tr *obs.Trace) {
	b := httpapi.NewReply(rep.Epoch, items)
	if p.Flag("plan") {
		plan := rep.Plan
		b.JSON("plan", &plan)
	}
	if rep.Degraded {
		b.True("degraded")
	}
	if len(rep.ShardErrors) > 0 {
		b.JSON("shard_errors", rep.ShardErrors)
	}
	if t := tr.Finish(); t != nil {
		b.JSON("trace", t)
	}
	b.Send(w)
}
