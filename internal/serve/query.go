package serve

// The unified query entry point: every read the store serves — single range,
// single kNN, epoch self-joins — is one Store.Query call, so admission
// control, epoch pinning, deadlines, caching and plan reporting happen in
// exactly one place. The named methods (Range, KNN, SelfJoin, ...) are thin
// wrappers that fill a Request and reshape the Reply.
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
//     progress fails with Reply.Err.

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
	// to Buf closest first).
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
	// Buf is the append target for materialized OpRange/OpKNN results; the
	// reply's Items extends it (pass nil to allocate).
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

// PlanInfo reports the decisions behind one Reply: which join algorithm
// ran, whether the result came from the epoch cache, and how many shards the
// query fanned out to.
type PlanInfo struct {
	// Algorithm is the join algorithm that executed ("" for non-joins).
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
	// Items holds materialized OpRange/OpKNN results (req.Buf extended).
	Items []index.Item
	// Pairs, JoinAlgo, JoinItems and JoinStats hold the OpJoin outcome.
	Pairs     []join.Pair
	JoinAlgo  join.Algorithm
	JoinItems int
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
	// shard contributed), or a store-level failure. Mutually exclusive with
	// Degraded.
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
	switch req.Op {
	case OpKNN:
		rep = s.queryKNN(ctx, e, req)
	case OpJoin:
		rep = s.queryJoin(ctx, e, req)
	default:
		rep = s.queryRange(ctx, e, req)
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

// finishOutcome folds a shard fan-out outcome into the reply: a clean (or
// visitor-stopped) read passes through; partial progress degrades the reply
// with per-shard detail; zero progress on a dead context fails it. gathered
// is how many results the caller collected — progress even when no shard
// finished whole.
func (rep *Reply) finishOutcome(ctx context.Context, out visitOutcome, gathered int) {
	rep.Plan.FanOut = out.fan
	rep.Counters = out.counters
	if out.clean() || out.stopped {
		return
	}
	if out.done == 0 && gathered == 0 && out.cancelled {
		rep.Err = mapCtxErr(ctx.Err())
		return
	}
	rep.Degraded = true
	rep.ShardErrors = out.errs
}

func (s *Store) queryRange(ctx context.Context, e *Epoch, req Request) Reply {
	span := obs.SpanFromContext(ctx)
	rep := Reply{Epoch: e.seq}

	if req.Visit != nil {
		var n int64
		// Capture only the visitor func: the closure escapes into the visit
		// machinery, and grabbing all of req would drag the whole request to
		// the heap — on every path through this function, cached hits included.
		visit := req.Visit
		out := e.rangeVisitCtx(ctx, req.Query, func(it index.Item) bool {
			n++
			return visit(it)
		})
		rep.finishOutcome(ctx, out, int(n))
		s.queries.Add(1)
		s.results.Add(n)
		return rep
	}

	if c := e.cache; c != nil && !req.NoCache {
		key := rangeKey(req.Query)
		cs := span.Child("cache_lookup")
		entry, owner := c.lookup(key[:])
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
				// execution): fall through and execute privately, uncached.
				return s.rangeUncached(ctx, e, req, rep)
			}
			rep.Items = append(req.Buf, entry.items...)
			rep.Plan.CacheHit = true
			rep.Plan.FanOut = e.planRange(req.Query)
			s.queries.Add(1)
			s.results.Add(int64(len(entry.items)))
			return rep
		}
		if cs != nil {
			cs.Set("hit", false)
			cs.End()
		}
		s.cacheMisses.Add(1)
		var priv []index.Item
		out := e.rangeVisitCtx(ctx, req.Query, func(it index.Item) bool {
			priv = index.AppendItem(priv, it)
			return true
		})
		// entry is nil when the cache was dropped mid-query (epoch retired).
		if entry != nil {
			if out.clean() {
				entry.fill(priv)
			} else {
				// Never let a partial result become a cache hit.
				c.remove(key[:])
				entry.abandon()
			}
		}
		rep.finishOutcome(ctx, out, len(priv))
		if rep.Err != nil {
			return rep
		}
		rep.Items = append(req.Buf, priv...)
		s.queries.Add(1)
		s.results.Add(int64(len(priv)))
		return rep
	}

	return s.rangeUncached(ctx, e, req, rep)
}

// rangeUncached is the cache-bypassing materializing range path.
func (s *Store) rangeUncached(ctx context.Context, e *Epoch, req Request, rep Reply) Reply {
	buf := req.Buf
	base := len(buf)
	out := e.rangeVisitCtx(ctx, req.Query, func(it index.Item) bool {
		buf = index.AppendItem(buf, it)
		return true
	})
	rep.finishOutcome(ctx, out, len(buf)-base)
	if rep.Err != nil {
		return rep
	}
	rep.Items = buf
	s.queries.Add(1)
	s.results.Add(int64(len(buf) - base))
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

func (s *Store) queryKNN(ctx context.Context, e *Epoch, req Request) Reply {
	span := obs.SpanFromContext(ctx)
	rep := Reply{Epoch: e.seq}

	if c := e.cache; c != nil && !req.NoCache {
		key := knnKey(req.Point, req.K)
		cs := span.Child("cache_lookup")
		entry, owner := c.lookup(key[:])
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
				return s.knnUncached(ctx, e, req, rep)
			}
			rep.Items = append(req.Buf, entry.items...)
			rep.Plan.CacheHit = true
			rep.Plan.FanOut = e.planAll()
			s.queries.Add(1)
			s.results.Add(int64(len(entry.items)))
			return rep
		}
		if cs != nil {
			cs.Set("hit", false)
			cs.End()
		}
		s.cacheMisses.Add(1)
		priv, out := e.knnIntoCtx(ctx, req.Point, req.K, nil)
		if entry != nil {
			if out.clean() {
				entry.fill(priv)
			} else {
				c.remove(key[:])
				entry.abandon()
			}
		}
		rep.finishOutcome(ctx, out, len(priv))
		if rep.Err != nil {
			return rep
		}
		rep.Items = append(req.Buf, priv...)
		s.queries.Add(1)
		s.results.Add(int64(len(priv)))
		return rep
	}

	return s.knnUncached(ctx, e, req, rep)
}

// knnUncached is the cache-bypassing kNN path.
func (s *Store) knnUncached(ctx context.Context, e *Epoch, req Request, rep Reply) Reply {
	base := len(req.Buf)
	items, out := e.knnIntoCtx(ctx, req.Point, req.K, req.Buf)
	rep.finishOutcome(ctx, out, len(items)-base)
	if rep.Err != nil {
		return rep
	}
	rep.Items = items
	s.queries.Add(1)
	s.results.Add(int64(len(items) - base))
	return rep
}

func (s *Store) queryJoin(ctx context.Context, e *Epoch, req Request) Reply {
	rep := Reply{Epoch: e.seq, Plan: PlanInfo{FanOut: e.planAll()}}
	jr := req.Join

	if err := ctx.Err(); err != nil {
		rep.Err = mapCtxErr(err)
		return rep
	}
	items := e.AllItems(make([]index.Item, 0, e.items))
	ps := obs.SpanFromContext(ctx).Child("join_plan")
	var pl join.Planner
	var plan *join.Plan
	if jr.Force {
		plan = pl.PlanSelfWith(jr.Algo, items, join.Options{Eps: jr.Eps})
	} else {
		plan = pl.PlanSelf(items, join.Options{Eps: jr.Eps})
	}
	defer plan.Close()
	if ps != nil {
		ps.Set("algorithm", plan.Algo().String())
		ps.Set("items", len(items))
		ps.End()
	}
	js := obs.SpanFromContext(ctx).Child("join_exec")
	pairs, stats := plan.RunParallel(ctx, jr.Workers)
	rep.Counters = stats.Aggregate()
	if js != nil {
		js.Set("algorithm", plan.Algo().String())
		js.Set("pairs", len(pairs))
		js.Set("comparisons", rep.Counters.Comparisons)
		js.Set("cells", plan.Cells())
		js.Set("tasks", stats.Tasks)
		js.End()
	}

	rep.Pairs = pairs
	rep.JoinAlgo = plan.Algo()
	rep.JoinItems = len(items)
	rep.JoinStats = stats
	rep.Plan.Algorithm = plan.Algo().String()
	rep.Plan.Comparisons = rep.Counters.Comparisons
	if stats.Cancelled {
		if len(pairs) == 0 {
			rep.Pairs = nil
			rep.Err = mapCtxErr(ctx.Err())
			return rep
		}
		rep.Degraded = true
	}
	s.joins.Add(1)
	s.joinPairs.Add(int64(len(pairs)))
	return rep
}
