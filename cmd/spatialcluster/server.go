package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"spatialsim/internal/cluster"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// clusterJoinResponse is the wire shape of a cluster-wide join answer.
type clusterJoinResponse struct {
	Epoch      uint64              `json:"epoch"`
	Algorithm  string              `json:"algorithm"`
	Eps        float64             `json:"eps"`
	Count      int                 `json:"count"`
	Truncated  bool                `json:"truncated"`
	Pairs      [][2]int64          `json:"pairs"`
	FanOut     int                 `json:"fan_out"`
	Degraded   bool                `json:"degraded,omitempty"`
	NodeErrors []cluster.NodeError `json:"node_errors,omitempty"`
}

// updateResponse reports the cluster epoch the batch was published as.
type updateResponse struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

// newClusterHandler wires the coordinator into the versioned HTTP/JSON API.
//
//	GET  /v1/range?minx=..&maxz=..[&limit=][&timeout=]   scatter/gather range
//	GET  /v1/knn?x=&y=&z=&k=[&timeout=]                  scatter/gather kNN
//	GET  /v1/join?eps=[&algo=][&workers=][&limit=]       cluster-wide self-join
//	POST /v1/update {"upserts":[...],"deletes":[...]}    two-phase epoch swap
//	GET  /v1/stats                                       coordinator + nodes
//	GET  /v1/placement                                   the tile map
//	POST /v1/nodes/kill?name=n0                          failure drill
//	POST /v1/nodes/revive?name=n0
//	GET  /v1/healthz
//	GET  /metrics                                        Prometheus exposition
//
// Query replies follow the cluster degradation contract: a node failure with
// replicas left answers complete (failover/hedging absorbed it); a failure
// with no replica answers 200 with "degraded":true and per-node detail —
// correct but partial, never wrong. Zero progress answers 503, an expired
// ?timeout= answers 504, exactly like the single-node server.
func newClusterHandler(co *cluster.Coordinator, nodes []*cluster.Node, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/range", handleClusterRange(co))
	mux.Handle("/v1/knn", handleClusterKNN(co))
	mux.Handle("/v1/join", handleClusterJoin(co))
	mux.HandleFunc("/v1/update", handleClusterUpdate(co))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) { httpapi.WriteJSON(w, co.Stats()) })
	mux.HandleFunc("/v1/placement", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, map[string]interface{}{"epoch": co.Epoch(), "tiles": co.Placement().Tiles()})
	})
	mux.Handle("/v1/nodes/kill", handleNodeAdmin(nodes, true))
	mux.Handle("/v1/nodes/revive", handleNodeAdmin(nodes, false))
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
	}
	return mux
}

// writeClusterError maps a zero-progress cluster Reply onto the envelope:
// every-owner-down answers 503 (the cluster may heal; retry), an expired
// deadline 504, everything else 500.
func writeClusterError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrUnavailable):
		w.Header().Set("Retry-After", "1")
		httpapi.Error(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	case errors.Is(err, serve.ErrOverload):
		w.Header().Set("Retry-After", "1")
		httpapi.Error(w, http.StatusServiceUnavailable, "overloaded", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpapi.Error(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		httpapi.Error(w, http.StatusServiceUnavailable, "canceled", err.Error())
	case errors.Is(err, cluster.ErrNotBootstrapped):
		httpapi.Error(w, http.StatusConflict, "conflict", err.Error())
	default:
		httpapi.Error(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// writeClusterQueryResponse answers a scattered range/kNN read: epoch,
// count, items, fan_out, then — each only when non-zero — hedges,
// failovers, degraded and node_errors.
func writeClusterQueryResponse(w http.ResponseWriter, rep cluster.Reply, items []index.Item) {
	b := httpapi.NewReply(rep.Epoch, items)
	b.Int("fan_out", rep.FanOut)
	if rep.Hedges != 0 {
		b.Int("hedges", rep.Hedges)
	}
	if rep.Failovers != 0 {
		b.Int("failovers", rep.Failovers)
	}
	if rep.Degraded {
		b.True("degraded")
	}
	if len(rep.NodeErrors) > 0 {
		b.JSON("node_errors", rep.NodeErrors)
	}
	b.Send(w)
}

func handleClusterRange(co *cluster.Coordinator) httpapi.Handler {
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
		rep := co.Range(ctx, box)
		if rep.Err != nil {
			writeClusterError(w, rep.Err)
			return
		}
		items := rep.Items
		if limit > 0 && len(items) > limit {
			items = items[:limit]
		}
		writeClusterQueryResponse(w, rep, items)
	}
}

func handleClusterKNN(co *cluster.Coordinator) httpapi.Handler {
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
		rep := co.KNN(ctx, pt, k)
		if rep.Err != nil {
			writeClusterError(w, rep.Err)
			return
		}
		writeClusterQueryResponse(w, rep, rep.Items)
	}
}

func handleClusterJoin(co *cluster.Coordinator) httpapi.Handler {
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
		rep := co.Join(ctx, jr)
		if rep.Err != nil {
			writeClusterError(w, rep.Err)
			return
		}
		resp := clusterJoinResponse{
			Epoch:      rep.Epoch,
			Algorithm:  rep.JoinAlgo.String(),
			Eps:        jr.Eps,
			Count:      len(rep.Pairs),
			Truncated:  len(rep.Pairs) > limit,
			FanOut:     rep.FanOut,
			Degraded:   rep.Degraded,
			NodeErrors: rep.NodeErrors,
		}
		n := len(rep.Pairs)
		if n > limit {
			n = limit
		}
		resp.Pairs = make([][2]int64, n)
		for i := 0; i < n; i++ {
			resp.Pairs[i] = [2]int64{rep.Pairs[i].A, rep.Pairs[i].B}
		}
		httpapi.WriteJSON(w, resp)
	}
}

func handleClusterUpdate(co *cluster.Coordinator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		batch, ok := httpapi.ReadUpdate(w, r)
		if !ok {
			return
		}
		epoch, err := co.ApplyCtx(r.Context(), batch)
		if err != nil {
			// A stage failure aborted the swap: readers are still consistent on
			// the old epoch, so this is retryable — 503, not 500.
			if errors.Is(err, cluster.ErrNotBootstrapped) {
				httpapi.Error(w, http.StatusConflict, "conflict", err.Error())
				return
			}
			w.Header().Set("Retry-After", "1")
			httpapi.Error(w, http.StatusServiceUnavailable, "swap_aborted", err.Error())
			return
		}
		httpapi.WriteJSON(w, updateResponse{Epoch: epoch, Applied: len(batch)})
	}
}

// handleNodeAdmin is the failure-drill surface: POST /v1/nodes/kill?name=n0
// makes a node unreachable (queries fail over, swaps abort), revive brings it
// back. Drills are how the CI smoke job proves degraded-but-correct serving.
func handleNodeAdmin(nodes []*cluster.Node, kill bool) httpapi.Handler {
	return func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		if r.Method != http.MethodPost {
			httpapi.Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "node admin requires POST")
			return
		}
		name := p.Get("name")
		for _, n := range nodes {
			if n.Name() == name {
				if kill {
					n.Kill()
				} else {
					n.Revive()
				}
				httpapi.WriteJSON(w, map[string]interface{}{"node": name, "down": n.Down()})
				return
			}
		}
		httpapi.Error(w, http.StatusNotFound, "not_found", "no node named "+strconv.Quote(name))
	}
}
