package main

// Tests pinning the HTTP robustness surface: ?timeout= handling, the
// overload (503 + Retry-After), deadline (504) and degraded (200 +
// "degraded":true) envelopes, and graceful shutdown on SIGTERM.

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

// decodeError unpacks the uniform {"error":{"code","message"}} envelope.
func decodeError(t *testing.T, body []byte) errorBody {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error payload is not the envelope shape: %v\n%s", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("error envelope has no code: %s", body)
	}
	return env.Error
}

func TestTimeoutParamRejectsBadDurations(t *testing.T) {
	_, ts := testServer(t, 100)
	// "nope" unparsable, "-5ms"/"0s" non-positive, "300m"/"1000h" absurd
	// (the first is the classic 300ms typo that would pin a slot for hours).
	for _, bad := range []string{"nope", "-5ms", "0s", "300m", "1000h"} {
		resp, body := getResp(t, ts.URL+"/v1/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1&timeout="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout=%q: status %d, want 400", bad, resp.StatusCode)
		}
		if eb := decodeError(t, body); eb.Code != "bad_request" {
			t.Errorf("timeout=%q: code %q, want bad_request", bad, eb.Code)
		}
	}
}

// TestDeadlineAnswers504 pins the expired-deadline envelope: a timeout the
// query cannot possibly meet answers 504 deadline_exceeded with no items.
func TestDeadlineAnswers504(t *testing.T) {
	_, ts := testServer(t, 100)
	resp, body := getResp(t, ts.URL+"/v1/range?minx=0&miny=0&minz=0&maxx=20&maxy=20&maxz=2&timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if eb := decodeError(t, body); eb.Code != "deadline_exceeded" {
		t.Fatalf("code %q, want deadline_exceeded", eb.Code)
	}
}

// TestOverloadAnswers503RetryAfter saturates a MaxInFlight=1, MaxQueued=1
// store (the one slot stalled by an injected shard latency, the one queue
// spot taken by a second request) and checks the third request is shed
// immediately with 503 + Retry-After.
func TestOverloadAnswers503RetryAfter(t *testing.T) {
	store, err := serve.New(serve.Config{Shards: 2, Workers: 2, MaxInFlight: 1, MaxQueued: 1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	seedStore(t, store, 100)
	url := newTestHTTP(t, store)

	faultinject.SetSeed(1)
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{LatencyRate: 1, Latency: 10 * time.Second})
	t.Cleanup(faultinject.Reset)

	// Two requests occupy the slot and the queue; their injected stalls are
	// ctx-interruptible, so they resolve at their own deadlines.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(url + "/v1/range?minx=0&miny=0&minz=0&maxx=20&maxy=20&maxz=2&timeout=2s")
			if err != nil {
				results <- 0
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// Wait until the second request is parked in the admission queue.
	deadline := time.Now().Add(5 * time.Second)
	for store.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	resp, body := getResp(t, url+"/v1/range?minx=0&miny=0&minz=0&maxx=20&maxy=20&maxz=2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	// Retry-After must be the admission queue's drain estimate: a whole
	// number of seconds inside the estimator's [1s, 60s] clamp, not a bare
	// constant placeholder.
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 response is missing the Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
	if want := int(store.RetryAfterHint() / time.Second); secs != want {
		t.Fatalf("Retry-After = %d, want the store's drain estimate %d", secs, want)
	}
	if eb := decodeError(t, body); eb.Code != "overloaded" {
		t.Fatalf("code %q, want overloaded", eb.Code)
	}
	// Shedding must be immediate — not a wait for the stalled slot.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed response took %v — it waited instead of shedding", elapsed)
	}
	if store.Stats().Shed == 0 {
		t.Fatal("Stats().Shed did not count the shed request")
	}
	faultinject.Reset()
	for i := 0; i < 2; i++ {
		<-results // stalled requests resolve at their deadlines; drain them
	}
}

// TestDegradedAnswers200WithDetail pins the partial-result envelope: one
// failed shard out of four yields HTTP 200 with "degraded":true, per-shard
// error detail, and the surviving shards' items.
func TestDegradedAnswers200WithDetail(t *testing.T) {
	_, ts := testServer(t, 100)
	faultinject.SetSeed(1)
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{ErrRate: 1, Count: 1})
	t.Cleanup(faultinject.Reset)

	resp, body := getResp(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200; body %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !qr.Degraded {
		t.Fatalf("reply with a failed shard is not marked degraded: %s", body)
	}
	if len(qr.ShardErrors) != 1 {
		t.Fatalf("shard_errors = %v, want exactly one entry", qr.ShardErrors)
	}
	if qr.Count == 0 || qr.Count >= 100 {
		t.Fatalf("degraded count = %d, want partial (0 < n < 100)", qr.Count)
	}

	// With the failpoint spent, the same query must be complete again and the
	// degraded fields must vanish from the wire.
	resp, body = getResp(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered status %d, want 200", resp.StatusCode)
	}
	if strings.Contains(string(body), "degraded") || strings.Contains(string(body), "shard_errors") {
		t.Fatalf("complete reply leaks degraded fields: %s", body)
	}
	var qr2 queryResponse
	if err := json.Unmarshal(body, &qr2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if qr2.Count != 100 {
		t.Fatalf("recovered count = %d, want 100", qr2.Count)
	}
}

// TestServeUntilSignalGracefulShutdown drives the real shutdown path: a
// durable store serving on a live listener receives SIGTERM, drains, takes
// its final snapshot, and a reopened store recovers the served state.
func TestServeUntilSignalGracefulShutdown(t *testing.T) {
	// Keep SIGTERM non-fatal for the whole test process even if the signal
	// lands before ServeUntilSignal registers its handler.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	store, err := serve.New(serve.Config{Shards: 2, Workers: 2, Persist: ps})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	items := make([]index.Item, 50)
	for i := range items {
		items[i] = index.Item{ID: int64(i), Box: geom.NewAABB(geom.V(float64(i), 0, 0), geom.V(float64(i)+1, 1, 1))}
	}
	store.Bootstrap(items)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- httpapi.ServeUntilSignal(newServer(store).Handler(), ln, 2*time.Second, slog.New(slog.NewTextHandler(&out, nil)), store.Close)
	}()

	// Wait for the server to answer, proving the handler is live.
	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Deliver SIGTERM until ServeUntilSignal returns; re-sending covers the
	// (tiny) window before its handler registration, and the guard above
	// keeps extra signals from killing the process.
	var serveErr error
	killDeadline := time.Now().Add(10 * time.Second)
waitShutdown:
	for {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("kill: %v", err)
		}
		select {
		case serveErr = <-done:
			break waitShutdown
		case <-time.After(200 * time.Millisecond):
			if time.Now().After(killDeadline) {
				t.Fatal("ServeUntilSignal did not return after SIGTERM")
			}
		}
	}
	if serveErr != nil {
		t.Fatalf("ServeUntilSignal returned %v after graceful shutdown", serveErr)
	}
	logs := out.String()
	for _, want := range []string{"shutdown signal received", "graceful shutdown complete"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("shutdown log missing %q:\n%s", want, logs)
		}
	}
	ps.Close()

	// The final snapshot must make the served epoch recoverable.
	ps2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen persist: %v", err)
	}
	store2, err := serve.New(serve.Config{Shards: 2, Workers: 2, Persist: ps2})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer func() {
		store2.Close()
		ps2.Close()
	}()
	if !store2.Recovery().Recovered {
		t.Fatal("restart after graceful shutdown recovered nothing")
	}
	if got := store2.Current().Len(); got != len(items) {
		t.Fatalf("recovered %d items, want %d", got, len(items))
	}
}
