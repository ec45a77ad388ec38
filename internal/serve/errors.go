package serve

// Typed failure surface of the robust query path. Every Store.Query outcome
// is one of three shapes: a clean Reply, a degraded Reply (partial results,
// per-shard error detail, Reply.Err nil), or a failed Reply whose Err is one
// of the sentinels below — the contract internal/httpapi maps onto HTTP
// status codes for the store and for the cluster coordinator alike.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrOverload is the load-shedding rejection: admission control found the
// in-flight bound saturated and the (priority-scaled) wait queue full, so the
// request was dropped immediately instead of queueing toward a deadline it
// could never meet. Clients should back off and retry.
var ErrOverload = errors.New("serve: overloaded: request shed by admission control")

// ErrDeadline is the deadline rejection: the request's context expired before
// any shard produced a result. It wraps context.DeadlineExceeded, so
// errors.Is(err, context.DeadlineExceeded) holds.
var ErrDeadline = fmt.Errorf("serve: query deadline exceeded: %w", context.DeadlineExceeded)

// ErrBadRequest is the refusal of a request no engine can answer, such as a
// join whose Eps is NaN, infinite or negative. It is returned before
// admission, so nothing runs.
var ErrBadRequest = errors.New("serve: bad request")

// ErrUnavailable is a zero-progress read on a live context: every shard or
// node the read reached failed, so there is no partial result to degrade to.
// internal/cluster re-exports it under its own name.
var ErrUnavailable = errors.New("unavailable: no shard or node could answer")

// The cluster coordinator's write failures are declared here, beside the
// store's, so that one error table maps both back ends without importing
// the cluster; internal/cluster re-exports the first one under its own name.
var (
	// ErrNotBootstrapped is a write before Bootstrap computed a placement.
	ErrNotBootstrapped = errors.New("cluster: not bootstrapped")
	// ErrSwapAborted wraps every failed cluster swap: some node did not stage
	// or pin the next epoch, so readers stay on the current one and the write
	// may be retried.
	ErrSwapAborted = errors.New("swap aborted")
)

// mapCtxErr normalizes a context error into the serve sentinel vocabulary:
// deadline expiry becomes ErrDeadline, cancellation passes through.
func mapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return err
}

// Outcome is how a scatter/gather read over shards (a store) or nodes (the
// cluster coordinator) ended, and Resolve is the one rule that turns it into
// a reply's shape.
type Outcome struct {
	// Answered: every target the read reached answered — all its matches,
	// or, up to a visitor's stop, as many as the visitor wanted.
	Answered bool
	// Progressed: some target contributed.
	Progressed bool
}

// Resolve decides, in this order: every reached target answered — clean;
// else something contributed — degraded; else a dead context fails the read
// with ErrDeadline or the context's error; else it fails with
// ErrUnavailable.
func (o Outcome) Resolve(ctx context.Context) (degraded bool, err error) {
	switch {
	case o.Answered:
		return false, nil
	case o.Progressed:
		return true, nil
	case ctx.Err() != nil:
		return false, mapCtxErr(ctx.Err())
	}
	return false, ErrUnavailable
}

// ShardError is the per-shard failure detail of a degraded Reply: which shard
// of the fan-out did not contribute and why (an injected or organic shard
// error, or the deadline expiring before the shard was scanned).
type ShardError struct {
	Shard int    `json:"shard"`
	Err   string `json:"error"`
}

// RetryAfterEstimate converts admission-queue state into the drain estimate
// an ErrOverload response should advertise as Retry-After: the time until a
// caller arriving now would plausibly get a slot, i.e. the queue depth
// (plus the caller itself) served at the observed average service time
// across maxInFlight parallel slots. The estimate is clamped to [1s, 60s]
// and rounded up to whole seconds — HTTP Retry-After is integral, and an
// estimate below a second is indistinguishable from "retry immediately",
// which is exactly the hammering the header exists to prevent.
func RetryAfterEstimate(queued int64, maxInFlight int, avg time.Duration) time.Duration {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if queued < 0 {
		queued = 0
	}
	drain := time.Duration((queued + 1) * int64(avg) / int64(maxInFlight))
	// Round up to whole seconds, then clamp.
	secs := (drain + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs * time.Second
}

// RetryAfterHint is the store's live drain estimate for overload responses:
// RetryAfterEstimate over the current queue depth, the in-flight bound, and
// an exponentially weighted moving average of recent query service times.
// An idle or just-started store reports the 1s floor.
func (s *Store) RetryAfterHint() time.Duration {
	return RetryAfterEstimate(s.queued.Load(), s.cfg.MaxInFlight, time.Duration(s.avgQueryNs.Load()))
}

// observeServiceTime folds one executed query's wall time into the EWMA
// behind RetryAfterHint (alpha 1/8). The read-modify-write is deliberately
// not atomic as a unit: a lost update under contention skews a hint, not an
// answer.
func (s *Store) observeServiceTime(d time.Duration) {
	old := s.avgQueryNs.Load()
	if old == 0 {
		s.avgQueryNs.Store(int64(d))
		return
	}
	s.avgQueryNs.Store(old + (int64(d)-old)/8)
}
