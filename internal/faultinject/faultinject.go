// Package faultinject is the failpoint registry of spatialsim's robustness
// substrate: named injection points compiled into the durability and
// serving layers that tests (and chaos jobs) arm with error, latency and
// torn-write faults. The paper's predictability thesis cuts both ways — a serving layer
// is only predictable if its behavior under a sick disk or a slow shard is
// exercised, not assumed — and failpoints make those conditions reproducible:
// every probabilistic decision is drawn from one seeded generator, so a
// failing chaos run replays byte-for-byte from its seed.
//
// Production cost is one atomic load per instrumented operation while the
// registry is disarmed (no faults enabled); the slow path is taken only by
// tests. Failpoint names are declared next to the code they instrument (see
// the Fault* constants in internal/serve and internal/persist).
package faultinject

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error surfaced by an armed failpoint whose Spec
// names no explicit error. Callers distinguish injected faults from organic
// ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Spec configures one failpoint. Rates are independent probabilities in
// [0, 1]; a hit rolls torn-write first (write callers only), then error, then
// latency, and at most one behavior fires per hit.
type Spec struct {
	// ErrRate is the probability a hit fails with Err.
	ErrRate float64
	// Err is the error an ErrRate hit returns (nil picks ErrInjected).
	Err error
	// LatencyRate is the probability a hit sleeps for Latency. The sleep is
	// context-interruptible through HitCtx — an injected stall never outlives
	// the caller's deadline.
	LatencyRate float64
	Latency     time.Duration
	// TornRate is the probability a CheckWrite hit is torn: only a random
	// proper prefix of the payload is written before the error surfaces,
	// simulating a crash mid-write.
	TornRate float64
	// Count caps how many times this failpoint triggers (0 = unlimited);
	// beyond the cap it behaves as disabled. A Count of 1 injects exactly one
	// deterministic fault.
	Count int64
}

// point is one armed failpoint.
type point struct {
	spec      Spec
	triggered int64
}

// Registry holds a set of armed failpoints and the seeded generator their
// decisions draw from. The zero number of armed points keeps the fast path to
// a single atomic load. All methods are safe for concurrent use.
type Registry struct {
	armed  atomic.Bool
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
	// total counts every injected fault across all points, surviving
	// Disable/Reset (per-point counts die with their point) — the monotonic
	// series the metrics exposition reads.
	total atomic.Int64
}

// NewRegistry returns an empty registry whose decisions are deterministic in
// seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{rng: rand.New(rand.NewSource(seed)), points: map[string]*point{}}
}

// Enable arms (or re-arms) the named failpoint.
func (r *Registry) Enable(name string, spec Spec) {
	r.mu.Lock()
	r.points[name] = &point{spec: spec}
	r.armed.Store(true)
	r.mu.Unlock()
}

// Disable disarms the named failpoint.
func (r *Registry) Disable(name string) {
	r.mu.Lock()
	delete(r.points, name)
	r.armed.Store(len(r.points) > 0)
	r.mu.Unlock()
}

// Reset disarms every failpoint.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.points = map[string]*point{}
	r.armed.Store(false)
	r.mu.Unlock()
}

// SetSeed re-seeds the decision generator (typically alongside Reset, at the
// start of a reproducible run).
func (r *Registry) SetSeed(seed int64) {
	r.mu.Lock()
	r.rng = rand.New(rand.NewSource(seed))
	r.mu.Unlock()
}

// Triggered reports how many faults the named failpoint has injected.
func (r *Registry) Triggered(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.points[name]; p != nil {
		return p.triggered
	}
	return 0
}

// decision is one resolved failpoint roll.
type decision struct {
	err     error
	latency time.Duration
	torn    bool
	tornAt  float64 // fraction of the payload written before the tear
}

// decide rolls the named failpoint. The rng is consulted under the lock, so
// concurrent callers serialize into one deterministic decision sequence.
func (r *Registry) decide(name string, write bool) (decision, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.points[name]
	if p == nil {
		return decision{}, false
	}
	if p.spec.Count > 0 && p.triggered >= p.spec.Count {
		return decision{}, false
	}
	var d decision
	switch {
	case write && p.spec.TornRate > 0 && r.rng.Float64() < p.spec.TornRate:
		d.torn = true
		d.tornAt = r.rng.Float64()
		d.err = p.spec.Err
	case p.spec.ErrRate > 0 && r.rng.Float64() < p.spec.ErrRate:
		d.err = p.spec.Err
		if d.err == nil {
			d.err = ErrInjected
		}
	case p.spec.LatencyRate > 0 && r.rng.Float64() < p.spec.LatencyRate:
		d.latency = p.spec.Latency
	default:
		return decision{}, false
	}
	if d.torn && d.err == nil {
		d.err = ErrInjected
	}
	p.triggered++
	r.total.Add(1)
	return d, true
}

// TotalTriggered reports how many faults the registry has injected across all
// failpoints, including ones since disarmed.
func (r *Registry) TotalTriggered() int64 { return r.total.Load() }

// HitCtx consults the named failpoint: it returns nil when the point is
// disarmed (or rolls clean), sleeps an injected latency (interruptible by
// ctx, returning ctx.Err() if the deadline fires first), or returns the
// injected error. A nil ctx makes latency sleeps uninterruptible.
func (r *Registry) HitCtx(ctx context.Context, name string) error {
	if !r.armed.Load() {
		return nil
	}
	d, ok := r.decide(name, false)
	if !ok {
		return nil
	}
	if d.latency > 0 {
		return sleepCtx(ctx, d.latency)
	}
	return d.err
}

// Hit is HitCtx without a context.
func (r *Registry) Hit(name string) error { return r.HitCtx(nil, name) }

// CheckWrite consults the named failpoint for a write of n bytes. It returns
// how many bytes the caller should actually write and the error to report:
// (n, nil) when clean, (prefix < n, err) for a torn write — the caller writes
// the prefix and surfaces the error, exactly the crash-mid-write shape — and
// (0, err) for a plain injected write error.
func (r *Registry) CheckWrite(name string, n int) (int, error) {
	if !r.armed.Load() {
		return n, nil
	}
	d, ok := r.decide(name, true)
	if !ok {
		return n, nil
	}
	if d.latency > 0 {
		_ = sleepCtx(nil, d.latency)
		return n, nil
	}
	if d.torn {
		return int(float64(n) * d.tornAt), d.err
	}
	return 0, d.err
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Default is the process-wide registry the production failpoints consult.
// Tests arm it (and must Reset it on cleanup); production never does, keeping
// every instrumented operation at one atomic load.
var Default = NewRegistry(1)

// Enable arms a failpoint on the Default registry.
func Enable(name string, spec Spec) { Default.Enable(name, spec) }

// Disable disarms a failpoint on the Default registry.
func Disable(name string) { Default.Disable(name) }

// Reset disarms every failpoint on the Default registry.
func Reset() { Default.Reset() }

// SetSeed re-seeds the Default registry.
func SetSeed(seed int64) { Default.SetSeed(seed) }

// Triggered reports the Default registry's injection count for name.
func Triggered(name string) int64 { return Default.Triggered(name) }

// TotalTriggered reports the Default registry's all-points injection count.
func TotalTriggered() int64 { return Default.TotalTriggered() }

// HitCtx consults a failpoint on the Default registry.
func HitCtx(ctx context.Context, name string) error { return Default.HitCtx(ctx, name) }

// Hit consults a failpoint on the Default registry without a context.
func Hit(name string) error { return Default.Hit(name) }

// CheckWrite consults a write failpoint on the Default registry.
func CheckWrite(name string, n int) (int, error) { return Default.CheckWrite(name, n) }
