// Package httpapitest holds what the tests of both servers and of httpapi
// share: the reply structs the servers encoded through encoding/json before
// httpapi's append encoder — the oracle that encoder must match byte for
// byte, and the shape tests decode replies into — the update request
// encoding/json decodes, the oracle of httpapi's update decoder, and the
// contract suite both servers' handlers must pass.
package httpapitest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
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

// UpdateRequest is the wire shape of an update batch: decoded by
// encoding/json, the oracle httpapi's update decoder must agree with.
type UpdateRequest struct {
	Upserts []ItemJSON `json:"upserts"`
	Deletes []int64    `json:"deletes"`
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

// JoinResponse is spatialserver's join reply: the epoch and algorithm the
// join ran with, the number of items joined, the total pair count, and (up
// to limit) result pairs as [a, b] id tuples.
type JoinResponse struct {
	Epoch     uint64          `json:"epoch"`
	Algorithm string          `json:"algorithm"`
	Eps       float64         `json:"eps"`
	Items     int             `json:"items"`
	Count     int             `json:"count"`
	Truncated bool            `json:"truncated"`
	Pairs     [][2]int64      `json:"pairs"`
	Plan      *serve.PlanInfo `json:"plan,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
	Trace     *obs.SpanJSON   `json:"trace,omitempty"`
}

// A Refusal is a request both servers must answer 400, with an error
// message containing Names — the offending parameter and its value, or
// what was wrong with it.
type Refusal struct {
	Path, Names string
}

// Refusals is the parameter parser's refusal table: non-finite floats,
// present-but-malformed integers, out-of-range values, an unparsable
// timeout, a join algorithm other than the grid and an unknown op, on every
// read route both servers share.
var Refusals = []Refusal{
	{"/v1/range?minx=NaN&miny=0&minz=0&maxx=1&maxy=1&maxz=1", `minx="NaN"`},
	{"/v1/range?minx=0&miny=-Inf&minz=0&maxx=1&maxy=1&maxz=1", `miny="-Inf"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=%2BInf", `maxz="+Inf"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1e400&maxy=1&maxz=1", `maxx="1e400"`},
	{"/v1/range?minx=bad", "minx..maxz"},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1&limit=abc", `limit="abc"`},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1&timeout=soon", `timeout="soon"`},
	{"/v1/knn?x=NaN&y=0&z=0", `x="NaN"`},
	{"/v1/knn?x=0&y=0&z=Infinity", `z="Infinity"`},
	{"/v1/knn?x=0&y=0&z=0&k=abc", `k="abc"`},
	{"/v1/knn?x=0&y=0&z=0&k=2.5", `k="2.5"`},
	{"/v1/knn?x=1&y=1&z=1&k=0", "k out of range"},
	{"/v1/join?eps=NaN", `eps="NaN"`},
	{"/v1/join?eps=Inf", `eps="Inf"`},
	{"/v1/join?eps=abc", `eps="abc"`},
	{"/v1/join?eps=0.1&limit=abc", `limit="abc"`},
	{"/v1/join?eps=0.1&workers=x", `workers="x"`},
	{"/v1/join?eps=0.1&algo=touch", `algo="touch": want auto|grid`},
	{"/v1/query?op=join&eps=0.1&algo=bogus", `algo="bogus": want auto|grid`},
	{"/v1/query?op=teleport", "op must be"},
}

// An ErrorClass is how both servers answer a read or write that failed
// with Err: Status and Code in the error envelope, and whether the reply
// tells the client when to retry.
type ErrorClass struct {
	Err        error
	Status     int
	Code       string
	RetryAfter bool
}

// ErrorClasses is the error table both servers must keep.
var ErrorClasses = []ErrorClass{
	{serve.ErrOverload, http.StatusServiceUnavailable, "overloaded", true},
	{serve.ErrDeadline, http.StatusGatewayTimeout, "deadline_exceeded", false},
	{context.Canceled, http.StatusServiceUnavailable, "canceled", false},
	{serve.ErrUnavailable, http.StatusServiceUnavailable, "unavailable", true},
	{serve.ErrNotBootstrapped, http.StatusConflict, "conflict", false},
	{serve.ValidateBatch([]serve.Update{{ID: 1, Box: geom.AABB{Min: geom.V(2, 2, 2), Max: geom.V(1, 1, 1)}}}),
		http.StatusBadRequest, "bad_request", false},
	{fmt.Errorf("cluster: epoch 2 stage on n1 failed, %w (readers stay on epoch 1): %w",
		serve.ErrSwapAborted, cluster.ErrNodeDown), http.StatusServiceUnavailable, "swap_aborted", true},
	{errors.New("disk on fire"), http.StatusInternalServerError, "internal", false},
}

// Contract runs the suite every server's handler must pass over srv, whose
// back end holds exactly items: the refusal table; the error table, with the
// back end's reads and writes failing with each class; 405 on GET
// /v1/update; 413 on an update body over httpapi.MaxUpdateBody;
// X-Request-Id generated or echoed on every response; Content-Length equal
// to the body on every JSON reply; a span tree with ?trace=1, which on an
// update includes the body's decode; and range and kNN replies that match a
// linear scan of items while the reads share pooled buffers (checkReuse);
// and ranges limited to 1, 16, 1 000, no and -1 items (checkRangeLimit,
// where shardOrder says the back end replies every range in one fixed
// order). The trace subtest's update adds an item, so the reads run first.
func Contract(t *testing.T, srv *httpapi.Server, items []index.Item, shardOrder bool) {
	base := start(t, srv)
	t.Run("reuse", func(t *testing.T) { checkReuse(t, srv, base, items) })
	t.Run("range_limit", func(t *testing.T) { checkRangeLimit(t, base, items, shardOrder) })
	t.Run("refusals", func(t *testing.T) {
		for _, rf := range Refusals {
			resp, body := do(t, http.MethodGet, base+rf.Path, "")
			if msg := checkError(t, rf.Path, resp, body, http.StatusBadRequest, "bad_request"); !strings.Contains(msg, rf.Names) {
				t.Errorf("%s: message %q does not name %s", rf.Path, msg, rf.Names)
			}
		}
		if resp, body := do(t, http.MethodGet, base+"/v1/healthz", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/healthz after the refusals: %d %s", resp.StatusCode, body)
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, c := range ErrorClasses {
			f := *srv
			f.Backend = failing{srv.Backend, c.Err}
			base := start(t, &f)
			for _, req := range [][2]string{
				{http.MethodGet, "/v1/range?minx=0&miny=0&minz=0&maxx=100&maxy=100&maxz=100"},
				{http.MethodPost, "/v1/update"},
			} {
				what := req[0] + " " + req[1] + " failing with " + c.Err.Error()
				resp, body := do(t, req[0], base+req[1], `{"upserts":[{"id":1,"min":[1,1,1],"max":[2,2,2]}]}`)
				if msg := checkError(t, what, resp, body, c.Status, c.Code); msg != c.Err.Error() {
					t.Errorf("%s: message %q", what, msg)
				}
				want := ""
				if c.RetryAfter {
					want = strconv.Itoa(int(srv.Backend.RetryAfter() / time.Second))
				}
				if got := resp.Header.Get("Retry-After"); got != want {
					t.Errorf("%s: Retry-After %q, want %q", what, got, want)
				}
			}
		}
	})
	t.Run("method", func(t *testing.T) {
		resp, body := do(t, http.MethodGet, base+"/v1/update", "")
		checkError(t, "GET /v1/update", resp, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
	t.Run("body_cap", func(t *testing.T) {
		// Declared over the cap, the body is refused before it is sent: the
		// client waits for 100 Continue, which a refusing server never sends.
		req, err := http.NewRequest(http.MethodPost, base+"/v1/update", io.LimitReader(spaces{}, httpapi.MaxUpdateBody+1))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = httpapi.MaxUpdateBody + 1
		req.Header.Set("Expect", "100-continue")
		client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
		defer client.CloseIdleConnections()
		resp, body := send(t, client, req)
		checkError(t, "over-cap update", resp, body, http.StatusRequestEntityTooLarge, "too_large")
		if resp, body := do(t, http.MethodGet, base+"/v1/healthz", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/healthz after the over-cap body: %d %s", resp.StatusCode, body)
		}
	})
	t.Run("request_id", func(t *testing.T) {
		a, _ := do(t, http.MethodGet, base+"/v1/healthz", "")
		b, _ := do(t, http.MethodGet, base+"/v1/healthz", "")
		if a.Header.Get("X-Request-Id") == b.Header.Get("X-Request-Id") {
			t.Fatalf("generated request ids repeat: %q", a.Header.Get("X-Request-Id"))
		}
		for _, path := range []string{"/v1/stats", "/v1/knn?x=1"} {
			req, err := http.NewRequest(http.MethodGet, base+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Request-Id", "client-abc")
			if resp, _ := send(t, http.DefaultClient, req); resp.Header.Get("X-Request-Id") != "client-abc" {
				t.Errorf("%s: echoed id %q, want client-abc", path, resp.Header.Get("X-Request-Id"))
			}
		}
	})
	t.Run("join_limit", func(t *testing.T) {
		// count is exact whatever the limit; pairs are the first limit of
		// the full canonical list, and truncated says some were left out.
		var all JoinResponse
		eps := ""
		for _, e := range []string{"1", "10", "1e6"} {
			if all = getJoin(t, base, "eps="+e+"&limit=100000"); all.Count >= 3 {
				eps = e
				break
			}
		}
		if eps == "" || all.Truncated || len(all.Pairs) != all.Count {
			t.Fatalf("no join with 3 pairs or more, or an inexact full reply: %+v", all)
		}
		for _, limit := range []int{1, all.Count - 1, all.Count, all.Count + 5} {
			rep := getJoin(t, base, "eps="+eps+"&limit="+strconv.Itoa(limit))
			want := all.Pairs[:min(limit, all.Count)]
			if rep.Count != all.Count || rep.Truncated != (all.Count > limit) || !slices.Equal(rep.Pairs, want) {
				t.Errorf("limit=%d: count %d truncated %v %d pairs, want count %d truncated %v and the first %d pairs",
					limit, rep.Count, rep.Truncated, len(rep.Pairs), all.Count, all.Count > limit, len(want))
			}
		}
	})
	t.Run("trace", func(t *testing.T) {
		for _, req := range [][2]string{
			{http.MethodGet, "/v1/range?minx=0&miny=0&minz=0&maxx=100&maxy=100&maxz=100&trace=1"},
			{http.MethodGet, "/v1/knn?x=50&y=50&z=50&k=3&trace=1"},
			{http.MethodGet, "/v1/join?eps=0.5&limit=1&trace=1"},
			{http.MethodPost, "/v1/update?trace=1"},
		} {
			resp, body := do(t, req[0], base+req[1], traceUpdateBody)
			var rep struct {
				Trace *obs.SpanJSON `json:"trace"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rep) != nil || rep.Trace == nil {
				t.Errorf("%s: %d, no trace: %.300s", req[1], resp.StatusCode, body)
				continue
			}
			stage := req[1][:strings.IndexByte(req[1], '?')]
			if rep.Trace.Stage != stage || len(rep.Trace.Children) == 0 {
				t.Errorf("%s: trace root %q with %d children, want %q with some", req[1], rep.Trace.Stage, len(rep.Trace.Children), stage)
			}
			if stage == "/v1/update" {
				checkDecodeSpan(t, rep.Trace)
			}
		}
	})
}

// checkRangeLimit reads the range over every item at limits 1, 16, 1 000,
// none and -1. Each reply must hold min(limit, matches) items of the data
// (none and -1: every match). With shardOrder — the store, which keeps the
// first matches in shard order — each must also be, byte for byte, the
// unlimited reply at the same epoch cut to the limit; without it — the
// cluster, in task-launch order — any such items will do.
func checkRangeLimit(t *testing.T, base string, items []index.Item, shardOrder bool) {
	world := items[0].Box
	for _, it := range items {
		world = world.Union(it.Box)
	}
	status, all, err := get(base + rangeRead(world, 0).path)
	if err != nil || status != http.StatusOK {
		t.Fatalf("unlimited range: %d %v %.200s", status, err, all)
	}
	head, raw, tail := splitItems(t, all)
	for _, limit := range []int{1, 16, 1000, 0, -1} {
		rd := rangeRead(world, limit)
		status, body, err := get(base + rd.path)
		if err == nil {
			var degraded, refused bool
			if degraded, refused, err = rd.check(items, status, body); err == nil && (degraded || refused) {
				err = fmt.Errorf("%s: degraded %v, refused %v on a healthy back end", rd.path, degraded, refused)
			}
		}
		if err != nil {
			t.Error(err)
			continue
		}
		if !shardOrder {
			continue
		}
		n := len(raw)
		if limit > 0 {
			n = min(limit, n)
		}
		want := []byte(strings.Replace(head, `"count":`+strconv.Itoa(len(raw))+`,`, `"count":`+strconv.Itoa(n)+`,`, 1) +
			strings.Join(raw[:n], ",") + tail)
		if !bytes.Equal(body, want) {
			t.Errorf("%s: not the unlimited reply cut to %d items:\n got %.300s\nwant %.300s", rd.path, n, body, want)
		}
	}
}

// splitItems splits a range reply into the bytes before its items, each
// item's bytes and the bytes after them, checking that they join back into
// the reply.
func splitItems(t *testing.T, body []byte) (head string, items []string, tail string) {
	t.Helper()
	var rep struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("range reply: %v", err)
	}
	for _, it := range rep.Items {
		items = append(items, string(it))
	}
	const open = `"items":[`
	i := bytes.Index(body, []byte(open)) + len(open)
	joined := strings.Join(items, ",")
	head, tail = string(body[:i]), string(body[i:])
	if !strings.HasPrefix(tail, joined) {
		t.Fatalf("range reply items are not compact JSON: %.300s", body)
	}
	return head, items, tail[len(joined):]
}

// getJoin answers GET /v1/join?query, which must succeed.
func getJoin(t *testing.T, base, query string) JoinResponse {
	t.Helper()
	var rep JoinResponse
	resp, body := do(t, http.MethodGet, base+"/v1/join?"+query, "")
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rep) != nil {
		t.Fatalf("/v1/join?%s: %d %.300s", query, resp.StatusCode, body)
	}
	return rep
}

// checkDecodeSpan requires the update trace's "decode" child and its
// counts for the contract's one-upsert body.
func checkDecodeSpan(t *testing.T, root *obs.SpanJSON) {
	t.Helper()
	for _, c := range root.Children {
		if c.Stage != "decode" {
			continue
		}
		// Attributes come back through encoding/json, so numbers are float64.
		if c.Attrs["bytes"] != float64(len(traceUpdateBody)) || c.Attrs["upserts"] != 1.0 || c.Attrs["deletes"] != 0.0 {
			t.Errorf("/v1/update: decode span attrs %v, want bytes %d, upserts 1, deletes 0", c.Attrs, len(traceUpdateBody))
		}
		return
	}
	t.Errorf("/v1/update: no decode span among the trace's children")
}

// traceUpdateBody is the update the trace subtest posts.
const traceUpdateBody = `{"upserts":[{"id":987654321,"min":[1,1,1],"max":[2,2,2]}]}`

// failing is a back end whose reads come back failed with err (the rest of
// the reply as the back end gave it) and whose writes fail with err.
type failing struct {
	httpapi.Backend
	err error
}

func (f failing) Query(req serve.Request) httpapi.Result {
	res := f.Backend.Query(req)
	res.Err = f.err
	return res
}

func (f failing) Apply(context.Context, []serve.Update) (uint64, error) { return 0, f.err }

// spaces is an endless body of blanks.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func start(t *testing.T, srv *httpapi.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// do sends one request (body only with POST) through send.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	return send(t, http.DefaultClient, req)
}

// send runs req and reads the whole reply, checking what every response
// must carry: an X-Request-Id, and on a JSON reply a Content-Length equal
// to the body's.
func send(t *testing.T, client *http.Client, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	what := req.Method + " " + req.URL.RequestURI()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read: %v", what, err)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Errorf("%s: no X-Request-Id", what)
	}
	if resp.Header.Get("Content-Type") == "application/json" {
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", what, cl, len(body))
		}
	}
	return resp, body
}

// checkError checks an error reply's status and envelope code and returns
// its message.
func checkError(t *testing.T, what string, resp *http.Response, body []byte, status int, code string) string {
	t.Helper()
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Errorf("%s: body is not the error envelope: %v (%s)", what, err, body)
		return ""
	}
	if resp.StatusCode != status || env.Error.Code != code {
		t.Errorf("%s: %d %q, want %d %q", what, resp.StatusCode, env.Error.Code, status, code)
	}
	return env.Error.Message
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
