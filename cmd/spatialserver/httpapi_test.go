package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"spatialsim/internal/httpapi"
	"spatialsim/internal/httpapi/httpapitest"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// The wire shapes the tests decode replies into and build requests from.
type (
	queryResponse  = httpapitest.QueryResponse
	joinResponse   = httpapitest.JoinResponse
	updateRequest  = httpapitest.UpdateRequest
	updateResponse = httpapi.UpdateResponse
	itemJSON       = httpapitest.ItemJSON
	errorEnvelope  = httpapi.ErrorEnvelope
	errorBody      = httpapi.ErrorBody
)

func TestContract(t *testing.T) {
	store, _ := testServer(t, 100)
	httpapitest.Contract(t, newServer(store), gridItems(100), true)
}

// TestRangeAllocsDoNotGrowWithMatches pins the pooled result buffer through
// the store's handler (see httpapitest.AllocPin).
func TestRangeAllocsDoNotGrowWithMatches(t *testing.T) {
	store, err := serve.New(serve.Config{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Bootstrap(httpapitest.ScanItems())
	httpapitest.AllocPin(t, newServer(store).Handler())
}

// TestQueryResponseIsByteIdentical checks httpapi.WriteQuery over a store
// reply against json.NewEncoder(w).Encode of the queryResponse struct it
// replaced, with every optional field off and on.
func TestQueryResponseIsByteIdentical(t *testing.T) {
	items := httpapitest.EdgeItems(40)
	plan := serve.PlanInfo{CacheHit: true, FanOut: 3}
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
		httpapi.WriteQuery(rec, p, storeResult(rep), tr)
		if !bytes.Equal(rec.Body.Bytes(), oracle.Bytes()) {
			t.Errorf("%s:\n got %.400s\nwant %.400s", tc.name, rec.Body.Bytes(), oracle.Bytes())
		}
	}
}

// TestJoinResponseIsByteIdentical checks httpapi.WriteJoin over a store
// reply against json.NewEncoder(w).Encode of the joinResponse struct it
// replaced: pairs cut at the limit or not, every optional field off and on.
func TestJoinResponseIsByteIdentical(t *testing.T) {
	pairs := []join.Pair{{A: 1, B: 2}, {A: 1, B: 9}, {A: -4, B: 70000000000}}
	plan := serve.PlanInfo{Algorithm: "grid", FanOut: 4, Comparisons: 31}
	for _, tc := range []struct {
		name                  string
		limit                 int
		plan, degraded, trace bool
	}{
		{"plain", 10, false, false, false},
		{"truncated", 2, false, false, false},
		{"all", 1, true, true, true},
	} {
		// The store keeps the first limit pairs and counts them all.
		rep := serve.Reply{Epoch: 5, Pairs: pairs[:min(len(pairs), tc.limit)],
			JoinItems: 40, JoinCount: len(pairs), Plan: plan}
		want := joinResponse{Epoch: 5, Algorithm: "grid", Eps: 0.3, Items: 40, Count: len(pairs),
			Truncated: len(pairs) > tc.limit, Pairs: [][2]int64{}}
		for _, pr := range pairs[:min(len(pairs), tc.limit)] {
			want.Pairs = append(want.Pairs, [2]int64{pr.A, pr.B})
		}
		query := ""
		if tc.plan {
			query, want.Plan = "plan=1", &plan
		}
		if tc.degraded {
			rep.Degraded, want.Degraded = true, true
		}
		var tr *obs.Trace
		if tc.trace {
			tr = obs.NewTrace("/v1/join")
			tr.Root().Child("join_exec").End()
			tr.Root().End()
			want.Trace = tr.Finish()
		}
		var oracle bytes.Buffer
		if err := json.NewEncoder(&oracle).Encode(want); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		httpapi.WriteJoin(rec, httpapi.Parse(query), storeResult(rep), 0.3, tc.limit, tr)
		if !bytes.Equal(rec.Body.Bytes(), oracle.Bytes()) {
			t.Errorf("%s:\n got %.400s\nwant %.400s", tc.name, rec.Body.Bytes(), oracle.Bytes())
		}
	}
}
