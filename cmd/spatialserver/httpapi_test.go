package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"spatialsim/internal/httpapi"
	"spatialsim/internal/httpapi/httpapitest"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// The wire shapes the tests decode replies into and build requests from.
type (
	queryResponse = httpapitest.QueryResponse
	updateRequest = httpapi.UpdateRequest
	itemJSON      = httpapi.ItemJSON
	errorEnvelope = httpapi.ErrorEnvelope
	errorBody     = httpapi.ErrorBody
)

func TestParamRefusals(t *testing.T) {
	_, ts := testServer(t, 100)
	httpapitest.CheckRefusals(t, ts.URL)
}

// TestQueryResponseIsByteIdentical checks writeQueryResponse against
// json.NewEncoder(w).Encode of the queryResponse struct it replaced, with
// every optional field off and on.
func TestQueryResponseIsByteIdentical(t *testing.T) {
	items := httpapitest.EdgeItems(40)
	plan := serve.PlanInfo{Family: "rtree", CacheHit: true, FanOut: 3}
	shardErrs := []serve.ShardError{{Shard: 1, Err: "shard 1: context deadline exceeded"}}
	for _, tc := range []struct {
		name                  string
		plan, degraded, trace bool
	}{
		{"plain", false, false, false},
		{"plan", true, false, false},
		{"degraded", false, true, false},
		{"trace", false, false, true},
		{"all", true, true, true},
	} {
		rep := serve.Reply{Epoch: 12, Items: items, Plan: plan}
		want := queryResponse{Epoch: 12, Count: len(items), Items: httpapitest.Items(items)}
		query := ""
		if tc.plan {
			query, want.Plan = "plan=1", &plan
		}
		if tc.degraded {
			rep.Degraded, rep.ShardErrors = true, shardErrs
			want.Degraded, want.ShardErrors = true, shardErrs
		}
		var tr *obs.Trace
		if tc.trace {
			tr = obs.NewTrace("/v1/range")
			sp := tr.Root().Child("fanout")
			sp.SetShard(2)
			sp.Set("tests", 17)
			sp.End()
			tr.Root().End() // ended spans render the same twice
			want.Trace = tr.Finish()
		}
		var oracle bytes.Buffer
		if err := json.NewEncoder(&oracle).Encode(want); err != nil {
			t.Fatal(err)
		}
		p := httpapi.Parse(query)
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, p, rep, items, tr)
		if !bytes.Equal(rec.Body.Bytes(), oracle.Bytes()) {
			t.Errorf("%s:\n got %.400s\nwant %.400s", tc.name, rec.Body.Bytes(), oracle.Bytes())
		}
	}
}
