package main

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// clusterBackend serves a cluster coordinator through the shared HTTP
// surface.
type clusterBackend struct{ co *cluster.Coordinator }

func (b clusterBackend) Query(req serve.Request) httpapi.Result {
	return clusterResult(b.co.Query(req))
}

// clusterResult hands a coordinator reply to the HTTP surface.
func clusterResult(rep cluster.Reply) httpapi.Result {
	return httpapi.Result{
		Epoch: rep.Epoch, Items: rep.Items,
		Pairs: rep.Pairs, JoinItems: rep.JoinItems, JoinCount: rep.JoinCount,
		Err: rep.Err, Detail: (*clusterDetail)(&rep),
	}
}

func (b clusterBackend) Apply(ctx context.Context, batch []serve.Update) (uint64, error) {
	return b.co.ApplyCtx(ctx, batch)
}

func (b clusterBackend) Stats() any { return b.co.Stats() }

// RetryAfter is one second: the coordinator queues nothing to estimate a
// drain from, and a fleet fails over or heals on that scale.
func (b clusterBackend) RetryAfter() time.Duration { return time.Second }

// clusterDetail is a coordinator reply's own part of the wire and the
// slow-query log.
type clusterDetail cluster.Reply

// AppendFields appends fan_out, then — each only when non-zero — hedges,
// failovers, degraded and node_errors.
func (d *clusterDetail) AppendFields(b *httpapi.Reply, _ httpapi.Params) {
	b.Int("fan_out", d.FanOut)
	if d.Hedges != 0 {
		b.Int("hedges", d.Hedges)
	}
	if d.Failovers != 0 {
		b.Int("failovers", d.Failovers)
	}
	if d.Degraded {
		b.True("degraded")
	}
	if len(d.NodeErrors) > 0 {
		b.JSON("node_errors", d.NodeErrors)
	}
}

func (d *clusterDetail) LogAttrs() []any {
	attrs := []any{"fan_out", d.FanOut, "hedges", d.Hedges, "failovers", d.Failovers}
	if d.Degraded {
		attrs = append(attrs, "degraded", true, "node_errors", d.NodeErrors)
	}
	return attrs
}

// newServer is the cluster's HTTP surface: the shared /v1 routes (see
// httpapi.Server.Handler) plus
//
//	GET  /v1/placement                   the tile map
//	POST /v1/nodes/kill?name=n0          failure drill: node unreachable
//	POST /v1/nodes/revive?name=n0        bring it back
//
// Reads follow the cluster degradation contract: a node failure with
// replicas left answers complete (failover/hedging absorbed it); a failure
// with no replica answers 200 with "degraded":true and node_errors —
// correct but partial, never wrong. Zero progress answers 503.
func newServer(co *cluster.Coordinator, nodes []*cluster.Node, reg *obs.Registry) *httpapi.Server {
	return &httpapi.Server{Backend: clusterBackend{co}, Metrics: reg, Routes: map[string]http.Handler{
		"/placement": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			httpapi.WriteJSON(w, map[string]interface{}{"epoch": co.Epoch(), "tiles": co.Placement().Tiles()})
		}),
		"/nodes/kill":   nodeAdmin(nodes, (*cluster.Node).Kill),
		"/nodes/revive": nodeAdmin(nodes, (*cluster.Node).Revive),
	}}
}

// nodeAdmin is the failure-drill surface: POST /v1/nodes/kill?name=n0 makes
// a node unreachable (queries fail over, swaps abort), revive brings it
// back. Drills are how the CI smoke job proves degraded-but-correct serving.
func nodeAdmin(nodes []*cluster.Node, act func(*cluster.Node)) httpapi.Handler {
	return func(w http.ResponseWriter, r *http.Request, p httpapi.Params) {
		if r.Method != http.MethodPost {
			httpapi.Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "node admin requires POST")
			return
		}
		name := p.Get("name")
		for _, n := range nodes {
			if n.Name() == name {
				act(n)
				httpapi.WriteJSON(w, map[string]interface{}{"node": name, "down": n.Down()})
				return
			}
		}
		httpapi.Error(w, http.StatusNotFound, "not_found", "no node named "+strconv.Quote(name))
	}
}
