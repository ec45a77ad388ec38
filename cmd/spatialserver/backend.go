package main

import (
	"context"
	"net/http"
	"time"

	"spatialsim/internal/httpapi"
	"spatialsim/internal/serve"
)

// storeBackend serves a serve.Store through the shared HTTP surface.
type storeBackend struct{ store *serve.Store }

func (b storeBackend) Query(req serve.Request) httpapi.Result { return storeResult(b.store.Query(req)) }

func (b storeBackend) Apply(ctx context.Context, batch []serve.Update) (uint64, error) {
	return b.store.ApplyCtx(ctx, batch)
}

func (b storeBackend) Stats() any { return b.store.Stats() }

// RetryAfter is the admission queue's drain estimate: queue depth x observed
// mean service time over the slot count, not a constant.
func (b storeBackend) RetryAfter() time.Duration { return b.store.RetryAfterHint() }

// storeResult hands a store reply to the HTTP surface.
func storeResult(rep serve.Reply) httpapi.Result {
	return httpapi.Result{
		Epoch: rep.Epoch, Items: rep.Items,
		Pairs: rep.Pairs, JoinItems: rep.JoinItems, JoinCount: rep.JoinCount,
		Err: rep.Err, Detail: (*storeDetail)(&rep),
	}
}

// storeDetail is a store reply's own part of the wire and the slow-query log.
type storeDetail serve.Reply

// AppendFields appends plan (with ?plan=1), then degraded and shard_errors
// when the reply is partial.
func (d *storeDetail) AppendFields(b *httpapi.Reply, p httpapi.Params) {
	if p.Flag("plan") {
		b.JSON("plan", &d.Plan)
	}
	if d.Degraded {
		b.True("degraded")
	}
	if len(d.ShardErrors) > 0 {
		b.JSON("shard_errors", d.ShardErrors)
	}
}

// LogAttrs is the executed plan, the instrument counter breakdown and the
// shard errors of a partial reply.
func (d *storeDetail) LogAttrs() []any {
	attrs := []any{
		"cache_hit", d.Plan.CacheHit,
		"fan_out", d.Plan.FanOut,
		"counters", d.Counters,
	}
	if d.Plan.Algorithm != "" {
		attrs = append(attrs, "algorithm", d.Plan.Algorithm)
	}
	if d.Degraded {
		attrs = append(attrs, "degraded", true, "shard_errors", d.ShardErrors)
	}
	return attrs
}

// newServer is the store's HTTP surface: the shared /v1 routes (see
// httpapi.Server.Handler) plus
//
//	POST /v1/snapshot  force a durable snapshot of the current epoch
//	GET  /v1/recovery  what the store recovered on boot (durable mode)
//
// ?plan=1 on a read adds the store's plan report (join algorithm, cache
// hit, shard fan-out); a deadline that fires mid-fan-out
// answers 200 with "degraded":true, the partial result and shard_errors.
func newServer(store *serve.Store) *httpapi.Server {
	return &httpapi.Server{Backend: storeBackend{store}, Routes: map[string]http.Handler{
		"/snapshot": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
		}),
		"/recovery": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			httpapi.WriteJSON(w, store.Recovery())
		}),
	}}
}
