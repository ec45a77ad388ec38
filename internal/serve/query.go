package serve

// The unified query entry point: every read the store serves — single range,
// single kNN, epoch self-joins — is one Store.Query call, so admission
// control, epoch pinning, deadlines, caching and plan reporting happen in
// exactly one place. A materialising range and a kNN share one cache
// protocol and one uncached path; they differ only in the cache key, the
// fan-out count and the executor. SelfJoin is the one named method left: it
// reshapes a join Reply for the benchmark harness.
//
// Robustness contract (the graceful-degradation shape a future multi-node
// coordinator inherits per shard):
//
//   - every query runs under a context: the caller's (Request.Ctx), tightened
//     by the per-class default deadline of Config.Deadlines when the caller
//     set none;
//   - admission control sheds instead of queueing forever: a saturated store
//     bounds its wait queue (background-priority work at a quarter of the
//     bound) and rejects the overflow with ErrOverload, while queued requests
//     carry their deadline into the queue and leave with ErrDeadline when it
//     fires first;
//   - a deadline or shard failure mid-fan-out degrades instead of failing:
//     if any shard contributed, the Reply carries the partial result with
//     Degraded set and per-shard error detail; only a query that made no
//     progress fails with Reply.Err — ErrDeadline (or the context's error)
//     when its context died, ErrUnavailable when every shard it reached
//     failed on a live one. Outcome.Resolve is that rule, and the cluster
//     coordinator decides its replies by it too.

import (
	"context"
	"errors"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
)

// Op selects the operation a Request performs.
type Op int

const (
	// OpRange is a single range query (Query box; Visit streams results,
	// otherwise matches are appended to Buf).
	OpRange Op = iota
	// OpKNN is a single k-nearest-neighbor query (Point, K; results appended
	// to Buf in (distance, ID) order).
	OpKNN
	// OpJoin is an epoch-pinned self-join (Join parameters).
	OpJoin
)

// Priority classes admission-control shedding. Under saturation, background
// work is shed at a quarter of the wait-queue bound, so interactive traffic
// keeps four times the queue headroom of joins.
type Priority int

const (
	// PriorityAuto derives the class from the Op: joins are background,
	// single range/kNN queries are interactive.
	PriorityAuto Priority = iota
	// PriorityInteractive is latency-sensitive point traffic.
	PriorityInteractive
	// PriorityBackground is bulk/analytical traffic, shed first.
	PriorityBackground
)

// Deadlines is the per-query-class default deadline table (zero = none). A
// class deadline applies only when the request's own context carries no
// deadline — an explicit caller deadline (e.g. ?timeout= on the HTTP surface)
// always wins.
type Deadlines struct {
	// Range bounds single range queries.
	Range time.Duration
	// KNN bounds single k-nearest-neighbor queries.
	KNN time.Duration
	// Join bounds epoch-pinned self-joins.
	Join time.Duration
}

// ForOp returns the class deadline of op.
func (d Deadlines) ForOp(op Op) time.Duration {
	switch op {
	case OpKNN:
		return d.KNN
	case OpJoin:
		return d.Join
	default:
		return d.Range
	}
}

// Request shapes one store read. Exactly the fields of the requested Op are
// consulted; the rest stay zero.
type Request struct {
	Op Op

	// Ctx carries the caller's deadline and cancellation into the query: the
	// admission queue, the shard fan-out (checked every few hundred leaves)
	// and the parallel join engine all observe it. Nil means
	// context.Background() plus the store's per-class default deadline.
	Ctx context.Context

	// Priority classes the request for load shedding (PriorityAuto derives it
	// from Op).
	Priority Priority

	// Query is the range box (OpRange).
	Query geom.AABB
	// Visit, when set on OpRange, streams matches instead of materializing
	// them; streaming queries support early stop and bypass the result cache.
	Visit func(index.Item) bool
	// Limit caps a materialising OpRange: the reply keeps the first Limit
	// matches in shard order — the unlimited reply at the same epoch cut to
	// Limit — and the traversal stops at the Limit-th. <= 0 keeps every
	// match. kNN, joins (see JoinRequest.Limit) and Visit ignore it.
	Limit int
	// Buf is the append target for materialized OpRange/OpKNN results —
	// range matches in shard order, kNN results closest first with equal
	// distances by ID; the reply's Items extends it (pass nil to allocate).
	// The caller lends it — both HTTP servers lend one from index.GetItems
	// per range and kNN read, as do the cluster's kNN node tasks — and may
	// reuse Items' array once it has read the reply.
	Buf []index.Item

	// Point and K shape OpKNN.
	Point geom.Vec3
	K     int

	// Join shapes OpJoin.
	Join JoinRequest

	// NoCache bypasses the result cache for this request (it neither reads
	// nor fills entries).
	NoCache bool
}

// priority resolves the request's effective shedding class.
func (r Request) priority() Priority {
	if r.Priority != PriorityAuto {
		return r.Priority
	}
	if r.Op == OpJoin {
		return PriorityBackground
	}
	return PriorityInteractive
}

// PlanInfo reports the decisions behind one Reply: the join algorithm (for
// joins), whether the result came from the epoch cache, and how many shards
// the query fanned out to.
type PlanInfo struct {
	// Algorithm is join.Algorithm for joins, "" for other reads.
	Algorithm string `json:"algorithm,omitempty"`
	// CacheHit is true when the result was served from the epoch cache
	// (including coalesced waits on an in-flight identical query).
	CacheHit bool `json:"cache_hit"`
	// FanOut is the number of non-empty shards the query reached after MBR
	// pruning (for kNN and joins: every non-empty shard of the epoch).
	FanOut int `json:"fan_out"`
	// Comparisons is the number of pairwise box comparisons a join ran — the
	// paper's yardstick of join work (0 for non-joins).
	Comparisons int64 `json:"comparisons,omitempty"`
}

// Reply is the outcome of one Store.Query call.
type Reply struct {
	// Epoch is the generation the query ran against (0 when the query was
	// rejected before pinning one).
	Epoch uint64
	// Items holds materialized OpRange/OpKNN results — range matches in
	// shard order, at most Request.Limit of them when it is set; kNN results
	// by (distance, ID), the cluster coordinator's order: req.Buf extended,
	// so it may alias the caller's buffer (or an array grown from it) and
	// never aliases store memory such as a cache entry.
	Items []index.Item
	// Pairs, JoinItems, JoinCount and JoinStats hold the OpJoin
	// outcome. JoinCount is the exact number of result pairs; Pairs holds
	// the first JoinRequest.Limit of them (all when Limit <= 0).
	Pairs     []join.Pair
	JoinItems int
	JoinCount int
	JoinStats join.RunStats
	// Plan reports the planning decisions behind the reply.
	Plan PlanInfo
	// Counters is the instrument-counter delta the query induced on the index
	// structures it touched — the raw material of the paper's cost breakdown,
	// attributed per query. For range/kNN it is the delta observed across the
	// shard fan-out (approximate under concurrent load: shard counters are
	// shared); for joins it is the workers' aggregated accounting. Zero on
	// cache hits.
	Counters instrument.CounterSnapshot `json:"counters"`

	// Degraded marks a partial result: some shard of the fan-out (or some
	// task of a join) did not contribute — because its slice of the
	// deadline budget ran out or it failed — but others did, so the reply
	// carries what was gathered instead of failing outright. ShardErrors
	// holds the per-shard detail. Degraded results are never cached.
	Degraded    bool         `json:"degraded,omitempty"`
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
	// Err is set when the query produced nothing usable: ErrOverload (shed at
	// admission), ErrDeadline / context.Canceled (context died before any
	// shard contributed), ErrUnavailable (every shard it reached failed), or
	// a store-level failure. Mutually exclusive with Degraded.
	Err error `json:"-"`
}

// Query executes one read against the current epoch under admission control
// and the store's deadline policy. It is the single entry point every named
// query method wraps.
func (s *Store) Query(req Request) Reply {
	return s.queryOn(req, nil)
}

// queryOn is the shared body of Query and QueryPinned: a nil pinned epoch
// reads the current generation under a query-scoped pin, a non-nil one reads
// exactly the generation the caller pinned.
func (s *Store) queryOn(req Request, pinned *Epoch) Reply {
	if req.Op == OpJoin {
		if err := req.Join.Validate(); err != nil {
			return Reply{Err: err}
		}
	}
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if d := s.cfg.Deadlines.ForOp(req.Op); d > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	// Latency is measured only for executed queries (shed and pre-admission
	// deadline rejects answer in microseconds and would drown the real
	// distribution under overload). The measurement also feeds the EWMA
	// behind RetryAfterHint, so it runs with metrics off too.
	t0 := time.Now()
	root := obs.SpanFromContext(ctx)

	as := root.Child("admit")
	release, err := s.admit(ctx, req.priority())
	as.End()
	if err != nil {
		return s.failedReply(err)
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return s.failedReply(mapCtxErr(err))
	}

	e := pinned
	if e == nil {
		e = s.acquire()
		defer s.release(e)
	}
	root.Set("epoch", e.seq)
	var rep Reply
	switch {
	case req.Op == OpJoin:
		rep = s.queryJoin(ctx, e, req)
	case req.Op == OpRange && req.Visit != nil:
		rep = s.queryVisit(ctx, e, req.Query, req.Visit)
	default:
		rep = s.queryItems(ctx, e, &req)
	}
	if rep.Degraded {
		s.degraded.Add(1)
	}
	if rep.Err != nil && errors.Is(rep.Err, context.DeadlineExceeded) {
		s.deadlineHits.Add(1)
	}
	el := time.Since(t0)
	s.observeServiceTime(el)
	if s.metrics != nil {
		s.metrics.latFor(req.Op).Observe(el)
	}
	return rep
}

// failedReply counts and shapes a query rejected before execution.
func (s *Store) failedReply(err error) Reply {
	if errors.Is(err, ErrOverload) {
		s.shed.Add(1)
	} else if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineHits.Add(1)
	}
	return Reply{Err: err}
}

// finishOutcome folds a shard fan-out outcome into the reply by the
// Outcome rule. A read that stopped early is answered unless a shard failed
// or was cancelled before the stop; gathered is how many results the caller
// collected — progress even when no shard finished whole.
func (rep *Reply) finishOutcome(ctx context.Context, out visitOutcome, gathered int) {
	rep.Plan.FanOut = out.fan
	rep.Counters = out.counters
	rep.Degraded, rep.Err = Outcome{Answered: len(out.errs) == 0, Progressed: out.done > 0 || gathered > 0}.Resolve(ctx)
	if rep.Degraded {
		rep.ShardErrors = out.errs
	}
}

// queryVisit streams a range query's matches to visit: no cache, early stop
// allowed.
func (s *Store) queryVisit(ctx context.Context, e *Epoch, q geom.AABB, visit func(index.Item) bool) Reply {
	rep := Reply{Epoch: e.seq}
	var n int64
	out := e.rangeVisitCtx(ctx, q, func(it index.Item) bool {
		n++
		return visit(it)
	})
	rep.finishOutcome(ctx, out, int(n))
	s.queries.Add(1)
	s.results.Add(n)
	return rep
}

// queryItems answers a materialising range or kNN through the epoch cache:
// a lookup, then either a hit, a coalesced wait on an identical in-flight
// read, or the fill obligation — execute privately, then fill the entry on a
// clean outcome or abandon it on a partial one. A read the cache cannot
// answer (no cache, NoCache, or an abandoned entry) runs uncached.
func (s *Store) queryItems(ctx context.Context, e *Epoch, req *Request) Reply {
	rep := Reply{Epoch: e.seq}
	c := e.cache
	if c == nil || req.NoCache {
		return s.itemsUncached(ctx, e, req, rep)
	}
	kb, kn := itemsKey(req)
	key := kb[:kn]
	cs := obs.SpanFromContext(ctx).Child("cache_lookup")
	entry, owner := c.lookup(key)
	if !owner {
		hit, failed := s.awaitEntry(ctx, entry)
		if cs != nil {
			cs.Set("hit", hit && !failed)
			cs.End()
		}
		if !hit {
			rep.Err = mapCtxErr(ctx.Err())
			return rep
		} else if failed {
			// The owner abandoned the entry (cancelled or degraded
			// execution): execute privately, uncached.
			return s.itemsUncached(ctx, e, req, rep)
		}
		rep.Items = append(req.Buf, entry.items...)
		rep.Plan.CacheHit = true
		rep.Plan.FanOut = e.fanOut(req)
		s.queries.Add(1)
		s.results.Add(int64(len(entry.items)))
		return rep
	}
	if cs != nil {
		cs.Set("hit", false)
		cs.End()
	}
	s.cacheMisses.Add(1)
	priv, out := e.collect(ctx, req, nil)
	rep.finishOutcome(ctx, out, len(priv))
	// entry is nil when the cache was dropped mid-query (epoch retired).
	if entry != nil {
		if !rep.Degraded && rep.Err == nil {
			entry.fill(priv)
		} else {
			// Never let a partial or failed result become a cache hit.
			c.remove(key)
			entry.abandon()
		}
	}
	if rep.Err != nil {
		return rep
	}
	rep.Items = append(req.Buf, priv...)
	s.queries.Add(1)
	s.results.Add(int64(len(priv)))
	return rep
}

// itemsUncached is the cache-bypassing materializing read: results append
// straight into req.Buf.
func (s *Store) itemsUncached(ctx context.Context, e *Epoch, req *Request, rep Reply) Reply {
	base := len(req.Buf)
	items, out := e.collect(ctx, req, req.Buf)
	rep.finishOutcome(ctx, out, len(items)-base)
	if rep.Err != nil {
		return rep
	}
	rep.Items = items
	s.queries.Add(1)
	s.results.Add(int64(len(items) - base))
	return rep
}

// awaitEntry waits for a coalesced cache entry to resolve, bounded by ctx.
// hit is false when the context died first; failed mirrors entry.failed.
func (s *Store) awaitEntry(ctx context.Context, entry *cacheEntry) (hit, failed bool) {
	if entry.ready() {
		if entry.failed {
			return true, true
		}
		s.cacheHits.Add(1)
		return true, false
	}
	s.cacheCoalesced.Add(1)
	select {
	case <-entry.done:
		return true, entry.failed
	case <-ctx.Done():
		return false, false
	}
}

func (s *Store) queryJoin(ctx context.Context, e *Epoch, req Request) Reply {
	rep := Reply{Epoch: e.seq, Plan: PlanInfo{FanOut: e.planAll()}}
	jr := req.Join

	if err := ctx.Err(); err != nil {
		rep.Err = mapCtxErr(err)
		return rep
	}
	items := e.AllItems(nil, jr.Workers)
	ps := obs.SpanFromContext(ctx).Child("join_plan")
	plan := join.Planner{Workers: jr.Workers}.PlanSelf(items, join.Options{Eps: jr.Eps})
	defer plan.Close()
	if ps != nil {
		ps.Set("algorithm", join.Algorithm)
		ps.Set("items", len(items))
		ps.End()
	}
	js := obs.SpanFromContext(ctx).Child("join_exec")
	pairs, stats := plan.RunParallel(ctx, jr.Workers, jr.Limit)
	rep.Counters = stats.Aggregate()
	if js != nil {
		js.Set("algorithm", join.Algorithm)
		js.Set("pairs", int(stats.Pairs))
		js.Set("kept", len(pairs))
		js.Set("comparisons", rep.Counters.Comparisons)
		js.Set("cells", plan.Cells())
		js.Set("tasks", stats.Tasks)
		js.End()
	}

	rep.Pairs = pairs
	rep.JoinItems = len(items)
	rep.JoinCount = int(stats.Pairs)
	rep.JoinStats = stats
	rep.Plan.Algorithm = join.Algorithm
	rep.Plan.Comparisons = rep.Counters.Comparisons
	rep.Degraded, rep.Err = Outcome{Answered: !stats.Cancelled, Progressed: len(pairs) > 0}.Resolve(ctx)
	if rep.Err != nil {
		rep.Pairs = nil
		return rep
	}
	s.joins.Add(1)
	s.joinPairs.Add(stats.Pairs)
	return rep
}
