// Package httpapitest holds what the tests of both servers and of httpapi
// share: the reply structs the servers encoded through encoding/json before
// httpapi's append encoder — the oracle that encoder must match byte for
// byte, and the shape tests decode replies into — and the one table of
// requests both servers must refuse with 400.
package httpapitest

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"spatialsim/internal/cluster"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// ItemJSON is one item on the wire: id plus box corners as [x, y, z].
type ItemJSON struct {
	ID  int64      `json:"id"`
	Min [3]float64 `json:"min"`
	Max [3]float64 `json:"max"`
}

// Items copies items into their wire shape.
func Items(items []index.Item) []ItemJSON {
	out := make([]ItemJSON, len(items))
	for i, it := range items {
		out[i] = ItemJSON{
			ID:  it.ID,
			Min: [3]float64{it.Box.Min.X, it.Box.Min.Y, it.Box.Min.Z},
			Max: [3]float64{it.Box.Max.X, it.Box.Max.Y, it.Box.Max.Z},
		}
	}
	return out
}

// QueryResponse is spatialserver's range/kNN reply.
type QueryResponse struct {
	Epoch       uint64             `json:"epoch"`
	Count       int                `json:"count"`
	Items       []ItemJSON         `json:"items"`
	Plan        *serve.PlanInfo    `json:"plan,omitempty"`
	Degraded    bool               `json:"degraded,omitempty"`
	ShardErrors []serve.ShardError `json:"shard_errors,omitempty"`
	Trace       *obs.SpanJSON      `json:"trace,omitempty"`
}

// ClusterQueryResponse is spatialcluster's range/kNN reply.
type ClusterQueryResponse struct {
	Epoch      uint64              `json:"epoch"`
	Count      int                 `json:"count"`
	Items      []ItemJSON          `json:"items"`
	FanOut     int                 `json:"fan_out"`
	Hedges     int                 `json:"hedges,omitempty"`
	Failovers  int                 `json:"failovers,omitempty"`
	Degraded   bool                `json:"degraded,omitempty"`
	NodeErrors []cluster.NodeError `json:"node_errors,omitempty"`
}

// A Refusal is a request both servers must answer 400, with an error
// message containing Names — the offending parameter and its value.
type Refusal struct {
	Path, Names string
}

// Refusals is the parameter parser's refusal table: non-finite floats,
// present-but-malformed integers and an unparsable timeout, on every query
// route both servers share.
var Refusals = []Refusal{
	{"/v1/range?minx=NaN&miny=0&minz=0&maxx=1&maxy=1&maxz=1", `minx="NaN"`},
	{"/v1/range?minx=0&miny=-Inf&minz=0&maxx=1&maxy=1&maxz=1", `miny="-Inf"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=%2BInf", `maxz="+Inf"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1e400&maxy=1&maxz=1", `maxx="1e400"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1&limit=abc", `limit="abc"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1&timeout=soon", `timeout="soon"`},
	{"/v1/knn?x=NaN&y=0&z=0", `x="NaN"`},
	{"/v1/knn?x=0&y=0&z=Infinity", `z="Infinity"`},
	{"/v1/knn?x=0&y=0&z=0&k=abc", `k="abc"`},
	{"/v1/knn?x=0&y=0&z=0&k=2.5", `k="2.5"`},
	{"/v1/join?eps=NaN", `eps="NaN"`},
	{"/v1/join?eps=Inf", `eps="Inf"`},
	{"/v1/join?eps=0.1&limit=abc", `limit="abc"`},
	{"/v1/join?eps=0.1&workers=x", `workers="x"`},
}

// CheckRefusals sends every Refusal to the server at base, then checks the
// server still answers /v1/healthz.
func CheckRefusals(t *testing.T, base string) {
	t.Helper()
	for _, rf := range Refusals {
		status, body := get(t, base+rf.Path)
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: body is not the error envelope: %v (%s)", rf.Path, err, body)
			continue
		}
		if status != http.StatusBadRequest || env.Error.Code != "bad_request" {
			t.Errorf("%s: %d %q, want 400 bad_request", rf.Path, status, env.Error.Code)
		}
		if !strings.Contains(env.Error.Message, rf.Names) {
			t.Errorf("%s: message %q does not name %s", rf.Path, env.Error.Message, rf.Names)
		}
	}
	if status, body := get(t, base+"/v1/healthz"); status != http.StatusOK {
		t.Fatalf("/v1/healthz after the refusals: %d %s", status, body)
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// EdgeFloats are the float64 values whose encoding/json form is easiest to
// get wrong: signed zero, the subnormal minimum, both sides of the 1e-6 and
// 1e21 'f'/'e' switch, the extremes and integral values.
var EdgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 9.99e-7, 1e-6, 1e-7, 1.5e-10,
	1e20, 1e21, -1e21, 1.7e300, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 42, 100, 123456789, 0.1, -37.25, 1.0 / 3,
}

// EdgeItems returns n items whose coordinates cycle through EdgeFloats.
func EdgeItems(n int) []index.Item {
	f := func(i int) float64 { return EdgeFloats[i%len(EdgeFloats)] }
	items := make([]index.Item, n)
	for i := range items {
		items[i] = index.Item{ID: int64(i*7919 - 3), Box: geom.AABB{
			Min: geom.V(f(6*i), f(6*i+1), f(6*i+2)),
			Max: geom.V(f(6*i+3), f(6*i+4), f(6*i+5)),
		}}
	}
	return items
}
