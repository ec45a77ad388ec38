package main

// HTTP-layer observability tests: /metrics exposes well-formed Prometheus
// series fed by real traffic, ?trace=1 returns a span tree (and its absence
// keeps the payload untouched), and the slow-query log emits a correlated
// structured record.

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// newObsServer builds a store with metrics wired, serves it through the
// instrumented handler, and returns the base URL plus the registry and the
// log buffer.
func newObsServer(t *testing.T, slow time.Duration) (string, *obs.Registry, *bytes.Buffer) {
	t.Helper()
	reg := obs.NewRegistry()
	obs.RegisterRuntimeGauges(reg)
	store, err := serve.New(serve.Config{Shards: 2, Workers: 2, CacheEntries: 16, Metrics: reg})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	seedStore(t, store, 100)
	var logBuf bytes.Buffer
	srv := newServer(store)
	srv.Metrics, srv.Logger, srv.SlowQuery = reg, slog.New(slog.NewTextHandler(&logBuf, nil)), slow
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return ts.URL, reg, &logBuf
}

func TestMetricsEndpointExposesCoreSeries(t *testing.T) {
	url, _, _ := newObsServer(t, 0)

	// Drive traffic so the series carry real observations: a cold range query,
	// the identical repeat (a cache hit), and a kNN.
	q := "/v1/range?minx=0&miny=0&minz=0&maxx=5&maxy=5&maxz=1"
	getResp(t, url+q)
	getResp(t, url+q)
	getResp(t, url+"/v1/knn?x=1&y=1&z=1&k=3")

	resp, body := getResp(t, url+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q is not a Prometheus text exposition", ct)
	}
	text := string(body)
	for _, want := range []string{
		`spatial_query_seconds_bucket{class="range",`,
		`spatial_query_seconds_count{class="range"}`,
		`spatial_query_seconds_bucket{class="knn",`,
		"spatial_queries_total",
		"spatial_cache_hits_total 1",
		"spatial_cache_misses_total 2",
		`spatial_cost_seconds_total{category=`,
		`spatial_http_request_seconds_bucket{route="/v1/range",`,
		`spatial_http_requests_total{route="/v1/range",code="200"} 2`,
		"spatial_epoch_seq",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i <= 0 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestTraceOptInOnHTTP(t *testing.T) {
	url, _, _ := newObsServer(t, 0)

	// Without ?trace=1 the payload has no trace key at all.
	_, plain := getResp(t, url+"/v1/range?minx=0&miny=0&minz=0&maxx=5&maxy=5&maxz=1")
	if strings.Contains(string(plain), `"trace"`) {
		t.Fatalf("untraced reply leaked a trace field: %s", plain)
	}

	// A distinct box: the traced request must execute (cache miss), so the
	// tree carries the fan-out spans too.
	_, traced := getResp(t, url+"/v1/range?minx=0&miny=0&minz=0&maxx=6&maxy=6&maxz=1&trace=1")
	var rep struct {
		Count int           `json:"count"`
		Trace *obs.SpanJSON `json:"trace"`
	}
	if err := json.Unmarshal(traced, &rep); err != nil {
		t.Fatalf("decode traced reply: %v", err)
	}
	if rep.Trace == nil {
		t.Fatalf("?trace=1 reply has no trace: %s", traced)
	}
	if rep.Trace.Stage != "/v1/range" {
		t.Fatalf("trace root stage %q, want the request path", rep.Trace.Stage)
	}
	stages := map[string]bool{}
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		stages[s.Stage] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rep.Trace)
	for _, want := range []string{"admit", "plan", "cache_lookup", "fanout", "shard_visit"} {
		if !stages[want] {
			t.Errorf("trace missing %q stage (got %v)", want, stages)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	// Threshold 1ns: every query is slow, so one request must produce one
	// correlated structured record.
	url, _, logBuf := newObsServer(t, time.Nanosecond)

	resp, _ := getResp(t, url+"/v1/range?minx=0&miny=0&minz=0&maxx=5&maxy=5&maxz=1")
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("response carries no X-Request-Id")
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query record in log: %q", logged)
	}
	for _, want := range []string{"request_id=" + reqID, "op=range", "elapsed=", "family=", "fan_out="} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query record missing %q: %q", want, logged)
		}
	}
}
