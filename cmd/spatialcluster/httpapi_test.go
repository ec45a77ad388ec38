package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"spatialsim/internal/cluster"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/httpapi/httpapitest"
)

// The wire shapes the tests decode replies into.
type (
	clusterQueryResponse = httpapitest.ClusterQueryResponse
	joinResponse         = httpapitest.JoinResponse
	updateResponse       = httpapi.UpdateResponse
	errorEnvelope        = httpapi.ErrorEnvelope
)

func TestClusterContract(t *testing.T) {
	items := fleetItems(50)
	co, nodes, _ := newTestFleet(t, 2, 1, items)
	httpapitest.Contract(t, newServer(co, nodes, nil), items)
}

// TestClusterRangeAllocsDoNotGrowWithMatches pins the pooled result and
// node-task buffers through the coordinator's handler (see
// httpapitest.AllocPin). Both nodes own every tile, so each range is one
// node task whatever its size: a fan-out costs a few allocations per task,
// and the pin is about the matches.
func TestClusterRangeAllocsDoNotGrowWithMatches(t *testing.T) {
	co, nodes, _ := newTestFleet(t, 2, 2, httpapitest.ScanItems())
	httpapitest.AllocPin(t, newServer(co, nodes, nil).Handler())
}

// TestClusterQueryResponseIsByteIdentical checks httpapi.WriteQuery over a
// coordinator reply against json.NewEncoder(w).Encode of the
// clusterQueryResponse struct it replaced, with every optional field off
// and on.
func TestClusterQueryResponseIsByteIdentical(t *testing.T) {
	items := httpapitest.EdgeItems(40)
	nodeErrs := []cluster.NodeError{{Node: "n1", Err: "node n1 is down"}}
	for _, rep := range []cluster.Reply{
		{Epoch: 3, FanOut: 1},
		{Epoch: 3, FanOut: 4, Hedges: 1},
		{Epoch: 3, FanOut: 4, Failovers: 2},
		{Epoch: 3, FanOut: 2, Degraded: true, NodeErrors: nodeErrs},
		{Epoch: 3, FanOut: 5, Hedges: 1, Failovers: 1, Degraded: true, NodeErrors: nodeErrs},
	} {
		var oracle bytes.Buffer
		if err := json.NewEncoder(&oracle).Encode(clusterQueryResponse{
			Epoch: rep.Epoch, Count: len(items), Items: httpapitest.Items(items),
			FanOut: rep.FanOut, Hedges: rep.Hedges, Failovers: rep.Failovers,
			Degraded: rep.Degraded, NodeErrors: rep.NodeErrors,
		}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		httpapi.WriteQuery(rec, nil, clusterResult(rep), items, nil)
		if !bytes.Equal(rec.Body.Bytes(), oracle.Bytes()) {
			t.Errorf("%+v:\n got %.400s\nwant %.400s", rep, rec.Body.Bytes(), oracle.Bytes())
		}
	}
}
