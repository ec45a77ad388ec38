package serve

// Robustness tests for the deadline / cancellation / load-shedding contract:
// a query against a deliberately slow or failing shard must come back promptly
// (error or degraded partial, never a hang), cancelled executions must never
// leak goroutines or poison the result cache, and a saturated store must shed
// instead of queueing forever.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// armShardFault arms the per-shard failpoint and guarantees cleanup.
func armShardFault(t *testing.T, spec faultinject.Spec) {
	t.Helper()
	faultinject.SetSeed(1)
	faultinject.Enable(FaultShardVisit, spec)
	t.Cleanup(faultinject.Reset)
}

// waitGoroutines polls until the goroutine count settles back near base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d goroutines, started with %d", runtime.NumGoroutine(), base)
}

// TestDeadlineSlowShardReturnsPromptly is the headline acceptance property:
// with every shard stalled far beyond the deadline, a deadlined query returns
// promptly with context.DeadlineExceeded — the injected stall never outlives
// the caller — and no goroutines leak.
func TestDeadlineSlowShardReturnsPromptly(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(400, 0))
	base := runtime.NumGoroutine()

	armShardFault(t, faultinject.Spec{LatencyRate: 1, Latency: 30 * time.Second})

	const deadline = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	rep := s.Query(Request{Op: OpRange, Query: geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8)), Ctx: ctx})
	elapsed := time.Since(start)

	if rep.Err == nil {
		t.Fatalf("slow-shard query returned no error (degraded=%v, items=%d)", rep.Degraded, len(rep.Items))
	}
	if !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", rep.Err)
	}
	if !errors.Is(rep.Err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", rep.Err)
	}
	// The stall is 30s; anything near the deadline proves the interrupt. The
	// bound is loose for -race schedulers but 100x under the injected stall.
	if elapsed > 50*deadline {
		t.Fatalf("query took %v against a %v deadline", elapsed, deadline)
	}
	if st := s.Stats(); st.DeadlineExceeded == 0 {
		t.Fatal("DeadlineExceeded counter not incremented")
	}
	waitGoroutines(t, base)
}

// TestDeadlineSlowVisitorCancelsMidScan drives the in-shard cancellation
// cadence: a visitor that dribbles time makes the scan outlive the deadline,
// and the countdown check inside the shard scan must cut it off with a
// degraded partial (items were already streamed) instead of running the scan
// to completion.
func TestDeadlineSlowVisitorCancelsMidScan(t *testing.T) {
	// One shard holding everything, so the scan is a single long visit run.
	s := mustNew(t, Config{Shards: 1, Workers: 2})
	defer s.Close()
	const n = 20000
	s.Bootstrap(genItems(n, 0))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var seen int
	start := time.Now()
	rep := s.Query(Request{
		Op:    OpRange,
		Query: geom.NewAABB(geom.V(-1, -1, -1), geom.V(700, 700, 8)),
		Ctx:   ctx,
		Visit: func(it index.Item) bool {
			seen++
			if seen%64 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			return true
		},
	})
	elapsed := time.Since(start)

	if seen >= n {
		t.Fatalf("scan ran to completion (%d items) despite the deadline", seen)
	}
	if !rep.Degraded {
		t.Fatalf("mid-scan cancellation with %d items streamed should degrade, got err=%v", seen, rep.Err)
	}
	if len(rep.ShardErrors) == 0 {
		t.Fatal("degraded reply carries no shard error detail")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled scan took %v", elapsed)
	}
}

// TestExpiredContextRejectedBeforeExecution: a context that is already dead
// never reaches the shards.
func TestExpiredContextRejectedBeforeExecution(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(100, 0))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := s.Query(Request{Op: OpRange, Query: geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8)), Ctx: ctx})
	if !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", rep.Err)
	}
	if len(rep.Items) != 0 || rep.Degraded {
		t.Fatalf("dead-context reply carried results: items=%d degraded=%v", len(rep.Items), rep.Degraded)
	}
}

// TestCancelledOwnerNeverFillsCache is the cache-poisoning guard: a cache
// owner whose execution dies on its deadline must abandon its entry, the next
// identical query must re-execute (not hit), and only a clean execution may
// populate the entry.
func TestCancelledOwnerNeverFillsCache(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, CacheEntries: 64})
	defer s.Close()
	s.Bootstrap(genItems(300, 0))
	query := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))

	// Owner dies: every shard stalled past the 5ms deadline.
	armShardFault(t, faultinject.Spec{LatencyRate: 1, Latency: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	rep := s.Query(Request{Op: OpRange, Query: query, Ctx: ctx})
	cancel()
	if rep.Err == nil {
		t.Fatalf("stalled owner returned no error (items=%d)", len(rep.Items))
	}

	// Disarm and repeat: the abandoned entry must not serve as a hit, and the
	// re-execution must return the full result set.
	faultinject.Reset()
	rep2 := s.Query(Request{Op: OpRange, Query: query})
	if rep2.Err != nil || rep2.Degraded {
		t.Fatalf("clean re-execution failed: err=%v degraded=%v", rep2.Err, rep2.Degraded)
	}
	if rep2.Plan.CacheHit {
		t.Fatal("abandoned cache entry served as a hit")
	}
	if len(rep2.Items) != 300 {
		t.Fatalf("re-execution returned %d items, want 300", len(rep2.Items))
	}

	// Third time is the charm: the clean execution's fill must now hit.
	rep3 := s.Query(Request{Op: OpRange, Query: query})
	if !rep3.Plan.CacheHit {
		t.Fatal("clean execution did not populate the cache")
	}
	if len(rep3.Items) != 300 {
		t.Fatalf("cache hit returned %d items, want 300", len(rep3.Items))
	}
}

// TestOverloadShedsWithErrOverload saturates a MaxInFlight=1 store, fills the
// one-deep wait queue, and verifies the next request is shed immediately with
// ErrOverload instead of waiting.
func TestOverloadShedsWithErrOverload(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, MaxInFlight: 1, MaxQueued: 1})
	defer s.Close()
	s.Bootstrap(genItems(100, 0))
	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var once sync.Once
		s.Query(Request{Op: OpRange, Query: universe, Visit: func(index.Item) bool {
			once.Do(func() { close(started) })
			<-gate
			return true
		}})
	}()
	<-started // the only in-flight slot is now held

	// Occupy the single queue slot with a waiter.
	wg.Add(1)
	queuedCtx, queuedCancel := context.WithCancel(context.Background())
	defer queuedCancel()
	go func() {
		defer wg.Done()
		s.Query(Request{Op: OpRange, Query: universe, Ctx: queuedCtx})
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	// Queue full: this one must shed, and fast.
	start := time.Now()
	rep := s.Query(Request{Op: OpRange, Query: universe})
	if !errors.Is(rep.Err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", rep.Err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shedding took %v — it must not wait", elapsed)
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Fatal("Shed counter not incremented")
	}

	close(gate)
	wg.Wait()
}

// TestBackgroundShedsBeforeInteractive: with the queue a quarter-full,
// background work is already shed while interactive work still queues.
func TestBackgroundShedsBeforeInteractive(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, MaxInFlight: 1, MaxQueued: 8})
	defer s.Close()
	s.Bootstrap(genItems(100, 0))
	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var once sync.Once
		s.Query(Request{Op: OpRange, Query: universe, Visit: func(index.Item) bool {
			once.Do(func() { close(started) })
			<-gate
			return true
		}})
	}()
	<-started

	// Two queued requests reach the background bound (8/4 = 2).
	waitCtx, waitCancel := context.WithCancel(context.Background())
	defer waitCancel()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Query(Request{Op: OpRange, Query: universe, Ctx: waitCtx})
		}()
	}
	waitFor(t, func() bool { return s.Stats().Queued == 2 })

	// Background is over its bound — shed. Interactive still has headroom: it
	// queues until its (short) deadline, i.e. a deadline error, not overload.
	bg := s.Query(Request{Op: OpRange, Query: universe, Priority: PriorityBackground})
	if !errors.Is(bg.Err, ErrOverload) {
		t.Fatalf("background err = %v, want ErrOverload", bg.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ia := s.Query(Request{Op: OpRange, Query: universe, Ctx: ctx, Priority: PriorityInteractive})
	if errors.Is(ia.Err, ErrOverload) {
		t.Fatal("interactive request shed while queue headroom remained")
	}
	if !errors.Is(ia.Err, context.DeadlineExceeded) {
		t.Fatalf("interactive err = %v, want DeadlineExceeded (queued past its deadline)", ia.Err)
	}

	close(gate)
	wg.Wait()
}

// TestDegradedPartialOnShardError: one shard fails its slice of the fan-out,
// the reply carries the other shards' results with Degraded set and per-shard
// detail, and the failure is not cached.
func TestDegradedPartialOnShardError(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	const n = 400
	s.Bootstrap(genItems(n, 0))

	armShardFault(t, faultinject.Spec{ErrRate: 1, Count: 1})
	rep := s.Query(Request{Op: OpRange, Query: geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))})
	if rep.Err != nil {
		t.Fatalf("partial fan-out failure should degrade, not fail: %v", rep.Err)
	}
	if !rep.Degraded {
		t.Fatal("reply not marked degraded")
	}
	if len(rep.ShardErrors) != 1 {
		t.Fatalf("shard errors = %v, want exactly one", rep.ShardErrors)
	}
	if len(rep.Items) == 0 || len(rep.Items) >= n {
		t.Fatalf("degraded reply returned %d items, want a proper partial of %d", len(rep.Items), n)
	}
	if st := s.Stats(); st.Degraded != 1 {
		t.Fatalf("Degraded counter = %d, want 1", st.Degraded)
	}

	// Disarmed, the same query is complete again — the failure left no trace.
	clean := s.Query(Request{Op: OpRange, Query: geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))})
	if clean.Err != nil || clean.Degraded || len(clean.Items) != n {
		t.Fatalf("recovery query: err=%v degraded=%v items=%d, want clean %d", clean.Err, clean.Degraded, len(clean.Items), n)
	}
}

// TestKNNDegradedOnShardError mirrors the range contract on the kNN merge
// path.
func TestKNNDegradedOnShardError(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(400, 0))

	armShardFault(t, faultinject.Spec{ErrRate: 1, Count: 1})
	rep := s.Query(Request{Op: OpKNN, Point: geom.V(16, 6, 2), K: 50})
	if rep.Err != nil {
		t.Fatalf("partial kNN should degrade, not fail: %v", rep.Err)
	}
	// Branch-and-bound may exhaust before reaching the poisoned shard; only a
	// reply that actually recorded a shard error must be marked degraded.
	if len(rep.ShardErrors) > 0 && !rep.Degraded {
		t.Fatal("kNN reply with shard errors not marked degraded")
	}
	if len(rep.Items) == 0 {
		t.Fatal("degraded kNN returned nothing")
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestZeroProgressFailsUnavailable: when every shard a read reaches fails
// and the context is alive, nothing contributed, so there is nothing to
// degrade to — the materialising range, the streaming range and the kNN all
// fail with ErrUnavailable. None is cached, and none counts as degraded.
func TestZeroProgressFailsUnavailable(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 16})
	defer s.Close()
	s.Bootstrap(genItems(400, 0))
	box := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))
	reqs := map[string]func() Request{
		"range": func() Request { return Request{Op: OpRange, Query: box} },
		"streaming": func() Request {
			return Request{Op: OpRange, Query: box, Visit: func(index.Item) bool { return true }}
		},
		"knn": func() Request { return Request{Op: OpKNN, Point: geom.V(16, 6, 2), K: 50} },
	}

	armShardFault(t, faultinject.Spec{ErrRate: 1})
	for name, req := range reqs {
		if rep := s.Query(req()); !errors.Is(rep.Err, ErrUnavailable) || rep.Degraded || len(rep.Items) != 0 {
			t.Errorf("%s: err=%v degraded=%v items=%d, want ErrUnavailable and nothing else", name, rep.Err, rep.Degraded, len(rep.Items))
		}
	}
	if st := s.Stats(); st.Degraded != 0 {
		t.Fatalf("Degraded counter = %d, want 0: a failed read is not a degraded one", st.Degraded)
	}

	faultinject.Reset()
	for name, req := range reqs {
		if rep := s.Query(req()); rep.Err != nil || rep.Degraded || rep.Plan.CacheHit {
			t.Errorf("%s after the fault: err=%v degraded=%v hit=%v, want a clean miss", name, rep.Err, rep.Degraded, rep.Plan.CacheHit)
		}
	}
}
