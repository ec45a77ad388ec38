package serve

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/obs"
	"spatialsim/internal/par"
	"spatialsim/internal/rtree"
)

// Shard is one space partition of an epoch — the frozen R-Tree image of one
// STR tile of the store's tile table, plus the tight MBR of its items used
// to prune query fan-out. An image unchanged by a publish is shared by
// reference between consecutive epochs; refs counts the epochs holding it.
type Shard struct {
	bounds geom.AABB
	snap   *rtree.Compact
	refs   *atomic.Int32
}

// newShard wraps a frozen image into a Shard. Both the publish path
// (freezeAndSwap) and crash recovery — where the image overlays the
// segment bytes in both serving modes — build shards through here.
func newShard(bounds geom.AABB, c *rtree.Compact) Shard {
	return Shard{bounds: bounds, snap: c, refs: new(atomic.Int32)}
}

// Bounds returns the shard's minimum bounding rectangle.
func (sh *Shard) Bounds() geom.AABB { return sh.bounds }

// Len returns the number of items the shard holds.
func (sh *Shard) Len() int { return sh.snap.Len() }

// Epoch is one immutable generation of the serving store: a set of frozen
// shards built from a consistent snapshot of the staged state. Readers pin an
// epoch (atomic refcount) for the duration of a query, so an epoch swap never
// blocks readers and never frees state out from under them; queries observe
// exactly one generation end to end, which is the torn-read guarantee the
// epoch tests drive. Epoch implements index.ReadIndex, so a whole epoch
// reads like any other frozen index.
type Epoch struct {
	seq    uint64
	items  int
	shards []Shard
	// bounds is the union of the non-empty shards' MBRs, computed once: the
	// cluster fan-out reads it on every query.
	bounds geom.AABB
	// covered is the WAL batch sequence this epoch's content includes; the
	// snapshotter stamps it into the segment so recovery knows which WAL
	// tail to replay on top.
	covered uint64
	// born is when the epoch was published (the retirement-age series
	// measures epoch lifetimes from it).
	born time.Time
	pins atomic.Int64
	// superseded is set when a newer epoch replaces this one; retireOnce
	// makes the drained-epoch accounting fire exactly once, whichever of the
	// swapper or the last unpinning reader observes pins reach zero.
	superseded atomic.Bool
	retireOnce atomic.Bool

	// onRetire runs exactly once when the epoch retires (superseded and
	// unpinned), after the cache drop — the reclamation hook a mapped epoch
	// uses to release its segment mapping instead of freeing heap.
	onRetire []func()

	// cache is the epoch's result cache (nil when caching is disabled); it
	// dies with the epoch, which is the whole invalidation story.
	cache *epochCache

	// wrapPool recycles the early-stop wrappers RangeVisit threads through
	// shards and knnPool the scratch KNNInto merges shard candidates in, so
	// warm epoch queries stay off the allocator like the underlying compact
	// snapshots do.
	wrapPool sync.Pool // *stopWrap
	knnPool  sync.Pool // *knnScratch
}

func newEpoch(seq uint64, shards []Shard, items int) *Epoch {
	bounds := geom.EmptyAABB()
	for i := range shards {
		shards[i].refs.Add(1)
		if shards[i].snap.Len() > 0 {
			bounds = bounds.Union(shards[i].bounds)
		}
	}
	e := &Epoch{seq: seq, items: items, shards: shards, bounds: bounds, born: time.Now()}
	e.wrapPool.New = func() interface{} {
		w := &stopWrap{}
		w.fn = w.call
		return w
	}
	nShards := len(shards)
	e.knnPool.New = func() interface{} {
		return &knnScratch{
			order: make([]int32, 0, nShards),
			dist2: make([]float64, nShards),
		}
	}
	return e
}

// Seq returns the epoch's generation number (monotonically increasing across
// swaps).
func (e *Epoch) Seq() uint64 { return e.seq }

// Name implements index.ReadIndex.
func (e *Epoch) Name() string { return "serve-epoch" }

// Len implements index.ReadIndex.
func (e *Epoch) Len() int { return e.items }

// Shards returns the epoch's shards (read-only views).
func (e *Epoch) Shards() []Shard { return e.shards }

// Pins returns the number of readers currently pinning the epoch.
func (e *Epoch) Pins() int64 { return e.pins.Load() }

// FaultShardVisit is the failpoint consulted once per shard on the
// single-query serving path (rangeVisitCtx / knnIntoCtx with a context):
// arming it with latency makes a shard deliberately slow, arming it with
// errors makes a shard fail its slice of the fan-out — the two conditions the
// degraded-reply contract is tested under. The interface paths (RangeVisit /
// KNNInto) and the join's AllItems never consult it, so fault arming cannot
// silently thin a join's input.
const FaultShardVisit = "serve.shard.visit"

// cancelCheckEvery is how many visited leaves pass between context checks
// inside one shard scan — small enough that a deadline interrupts a scan of
// a dense shard promptly, large enough to amortize the check to noise.
const cancelCheckEvery = 256

// stopWrap threads early-stop (and, when a context is attached, cooperative
// cancellation every cancelCheckEvery leaves) through the per-shard
// traversals without allocating: the bound method value is created once per
// pooled instance.
type stopWrap struct {
	visit     func(index.Item) bool
	stopped   bool
	cancelled bool
	ctx       context.Context
	countdown int
	fn        func(index.Item) bool
}

func (w *stopWrap) call(it index.Item) bool {
	if w.ctx != nil {
		if w.countdown--; w.countdown <= 0 {
			w.countdown = cancelCheckEvery
			if w.ctx.Err() != nil {
				w.cancelled = true
				return false
			}
		}
	}
	if !w.visit(it) {
		w.stopped = true
		return false
	}
	return true
}

// visitOutcome reports how a fanned-out read over the epoch's shards ended:
// how many shards the query reached after MBR pruning, how many completed,
// whether the visitor stopped early (not a failure), whether the context
// expired mid-fan-out, and the per-shard errors of the shards that did not
// contribute. A clean read has done == fan and no errors.
type visitOutcome struct {
	fan       int
	done      int
	stopped   bool
	cancelled bool
	errs      []ShardError
	// counters is the instrument-counter delta observed on the visited shards
	// (ctx paths only). Shard counters are shared across concurrent queries,
	// so the attribution is approximate under contention.
	counters instrument.CounterSnapshot
}

// clean reports whether every reached shard contributed fully.
func (o visitOutcome) clean() bool {
	return !o.cancelled && !o.stopped && len(o.errs) == 0
}

// RangeVisit implements index.RangeVisitor by scattering the query to every
// shard whose MBR intersects it. Items live in exactly one shard, so the
// concatenation of shard results is duplicate-free and complete.
func (e *Epoch) RangeVisit(query geom.AABB, visit func(index.Item) bool) {
	e.rangeVisitCtx(nil, query, visit)
}

// rangeVisitCtx is the cancellable, fault-aware form of RangeVisit: shards
// are checked against ctx before each scan (and every cancelCheckEvery leaves
// within one), the per-shard failpoint can inject latency or errors, and the
// outcome reports exactly which shards did not contribute. A nil ctx is the
// legacy interface path — no checks, no failpoints, no allocation.
func (e *Epoch) rangeVisitCtx(ctx context.Context, query geom.AABB, visit func(index.Item) bool) visitOutcome {
	var out visitOutcome
	var fan *obs.Span
	if ctx != nil {
		fan = obs.SpanFromContext(ctx).Child("fanout")
	}
	w := e.wrapPool.Get().(*stopWrap)
	w.visit, w.stopped, w.cancelled, w.ctx, w.countdown = visit, false, false, ctx, cancelCheckEvery
	for i := range e.shards {
		sh := &e.shards[i]
		if sh.snap.Len() == 0 || !query.Intersects(sh.bounds) {
			continue
		}
		out.fan++
		sp := fan.Child("shard_visit")
		sp.SetShard(i)
		var before instrument.CounterSnapshot
		c := sh.snap.Counters()
		if ctx != nil {
			before = c.Snapshot()
			if err := ctx.Err(); err != nil {
				// Deadline gone: keep walking only to attribute the skipped
				// shards in the degraded reply's error detail.
				out.cancelled = true
				out.errs = append(out.errs, ShardError{Shard: i, Err: err.Error()})
				sp.Set("error", err.Error())
				sp.End()
				continue
			}
			if err := faultinject.HitCtx(ctx, FaultShardVisit); err != nil {
				if ctx.Err() != nil {
					out.cancelled = true
				}
				out.errs = append(out.errs, ShardError{Shard: i, Err: err.Error()})
				sp.Set("error", err.Error())
				sp.End()
				continue
			}
		}
		sh.snap.RangeVisit(query, w.fn)
		if ctx != nil {
			delta := c.Snapshot().Sub(before)
			out.counters = out.counters.Add(delta)
			if sp != nil {
				sp.Set("counters", delta)
			}
		}
		sp.End()
		if w.cancelled {
			out.cancelled = true
			out.errs = append(out.errs, ShardError{Shard: i, Err: ctx.Err().Error()})
			continue
		}
		if w.stopped {
			out.stopped = true
			break
		}
		out.done++
	}
	w.visit, w.ctx = nil, nil
	e.wrapPool.Put(w)
	if fan != nil {
		fan.Set("fan", out.fan)
		fan.End()
	}
	return out
}

// rangeIntoCtx is the materializing form of rangeVisitCtx: it appends every
// match to buf and returns the extended slice.
func (e *Epoch) rangeIntoCtx(ctx context.Context, query geom.AABB, buf []index.Item) ([]index.Item, visitOutcome) {
	out := e.rangeVisitCtx(ctx, query, func(it index.Item) bool {
		buf = index.AppendItem(buf, it)
		return true
	})
	return buf, out
}

// collect runs a materializing read's executor — a range or a kNN — and
// appends its results to buf.
func (e *Epoch) collect(ctx context.Context, req *Request, buf []index.Item) ([]index.Item, visitOutcome) {
	if req.Op == OpKNN {
		return e.knnIntoCtx(ctx, req.Point, req.K, buf)
	}
	return e.rangeIntoCtx(ctx, req.Query, buf)
}

// Bounds returns the union of the epoch's shard MBRs — the tight extent of
// everything the epoch serves.
func (e *Epoch) Bounds() geom.AABB { return e.bounds }

// AllItems appends every item of the epoch to buf and returns the extended
// slice, in shard order. Shards partition the space, so the concatenation
// is duplicate-free; it is the materialization step of the epoch-pinned
// self-join. The slice is sized once from the shard lengths and the shards
// fill their own ranges of it on up to workers goroutines of the pool (<= 0
// uses GOMAXPROCS).
func (e *Epoch) AllItems(buf []index.Item, workers int) []index.Item {
	// Shard i fills buf[start[i]:start[i+1]].
	start := make([]int, len(e.shards)+1)
	start[0] = len(buf)
	for i := range e.shards {
		start[i+1] = start[i] + e.shards[i].snap.Len()
	}
	buf = slices.Grow(buf, start[len(e.shards)]-start[0])[:start[len(e.shards)]]
	got := make([]int, len(e.shards))
	all := e.Bounds().Expand(1e-9)
	par.ForTasks(len(e.shards), workers, func(_, i int) {
		dst := buf[start[i]:start[i+1]]
		if len(dst) == 0 {
			return
		}
		n := 0
		e.shards[i].snap.RangeVisit(all, func(it index.Item) bool {
			dst[n] = it
			n++
			return n < len(dst)
		})
		got[i] = n
	})
	// A shard whose traversal missed items leaves a gap (a NaN corner is in
	// the count but intersects no query); close the gaps in shard order.
	w := start[0]
	for i, n := range got {
		if w != start[i] {
			copy(buf[w:], buf[start[i]:start[i]+n])
		}
		w += n
	}
	return buf[:w]
}

// knnScratch is the pooled per-query state of the cross-shard kNN merge:
// shard visit order plus the cached distance keys and merge buffers that keep
// the merge linear — every item's box distance is computed exactly once.
type knnScratch struct {
	order []int32
	dist2 []float64

	curD    []float64    // distances of the running top-k, aligned with buf
	newD    []float64    // distances of the latest shard's candidates
	merged  []index.Item // merge output (swapped back into buf)
	mergedD []float64
}

// KNNInto implements index.KNNer with a global merge over shard-local
// results: shards are visited in ascending MBR-distance order, each
// contributes its k nearest (already sorted), and the two sorted runs are
// linearly merged on cached distance keys. A shard whose MBR is farther than
// the current kth-best distance cannot contribute (its every item is at
// least that far), so the scan stops early — the branch-and-bound the shard
// MBRs exist for.
func (e *Epoch) KNNInto(p geom.Vec3, k int, buf []index.Item) []index.Item {
	buf, _ = e.knnIntoCtx(nil, p, k, buf)
	return buf
}

// knnIntoCtx is the cancellable, fault-aware form of KNNInto: the context and
// the per-shard failpoint are consulted between shard merges (a nil ctx — the
// interface path — skips both). A shard that errors is recorded and skipped,
// which may cost result quality (its nearer neighbors are missed), so any
// non-clean outcome must be reported as degraded by the caller. Cancellation
// stops the merge at a shard boundary with the results gathered so far.
func (e *Epoch) knnIntoCtx(ctx context.Context, p geom.Vec3, k int, buf []index.Item) ([]index.Item, visitOutcome) {
	var out visitOutcome
	if k <= 0 || len(e.shards) == 0 {
		return buf, out
	}
	var fan *obs.Span
	if ctx != nil {
		fan = obs.SpanFromContext(ctx).Child("knn_fanout")
	}
	endFan := func() {
		if fan != nil {
			fan.Set("fan", out.fan)
			fan.End()
		}
	}
	st := e.knnPool.Get().(*knnScratch)
	st.order = st.order[:0]
	for i := range e.shards {
		if e.shards[i].snap.Len() == 0 {
			continue
		}
		st.dist2[i] = e.shards[i].bounds.Distance2ToPoint(p)
		st.order = append(st.order, int32(i))
	}
	out.fan = len(st.order)

	base := len(buf)
	st.curD = st.curD[:0]
	for len(st.order) > 0 {
		si := st.popNearest()
		cur := len(buf) - base
		if cur >= k && st.dist2[si] > st.curD[cur-1] {
			// Branch-and-bound exhaustion: the remaining shards cannot
			// contribute, so the result is complete, not degraded.
			out.done = out.fan - len(out.errs)
			e.knnPool.Put(st)
			endFan()
			return buf, out
		}
		sp := fan.Child("shard_knn")
		sp.SetShard(int(si))
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				out.cancelled = true
				out.errs = append(out.errs, ShardError{Shard: int(si), Err: err.Error()})
				sp.Set("error", err.Error())
				sp.End()
				break
			}
			if err := faultinject.HitCtx(ctx, FaultShardVisit); err != nil {
				sp.Set("error", err.Error())
				sp.End()
				if ctx.Err() != nil {
					out.cancelled = true
					out.errs = append(out.errs, ShardError{Shard: int(si), Err: err.Error()})
					break
				}
				out.errs = append(out.errs, ShardError{Shard: int(si), Err: err.Error()})
				continue
			}
		}
		var before instrument.CounterSnapshot
		c := e.shards[si].snap.Counters()
		if ctx != nil {
			before = c.Snapshot()
		}
		if cur >= k {
			// Only candidates nearer than the running kth can enter the
			// merge (ties keep the earlier shard's items).
			buf = e.shards[si].snap.KNNWithin(p, k, st.curD[cur-1], buf)
		} else {
			buf = e.shards[si].snap.KNNInto(p, k, buf)
		}
		if ctx != nil {
			delta := c.Snapshot().Sub(before)
			out.counters = out.counters.Add(delta)
			if sp != nil {
				sp.Set("counters", delta)
			}
		}
		sp.End()
		ms := fan.Child("merge")
		st.newD = st.newD[:0]
		for _, it := range buf[base+cur:] {
			st.newD = append(st.newD, it.Box.Distance2ToPoint(p))
		}
		buf, st.curD = st.mergeTopK(buf, base, cur, k, p)
		if ms != nil {
			ms.SetShard(int(si))
			ms.End()
		}
		out.done++
	}
	e.knnPool.Put(st)
	endFan()
	return buf, out
}

// popNearest removes and returns the unvisited shard nearest the query
// point, ties to the lower shard index: the visit order of a stable sort by
// distance, selected lazily because the branch-and-bound usually stops after
// a few of an epoch's tens of tiles.
func (st *knnScratch) popNearest() int32 {
	best := 0
	for j := 1; j < len(st.order); j++ {
		a, b := st.order[j], st.order[best]
		if st.dist2[a] < st.dist2[b] || (st.dist2[a] == st.dist2[b] && a < b) {
			best = j
		}
	}
	si := st.order[best]
	last := len(st.order) - 1
	st.order[best] = st.order[last]
	st.order = st.order[:last]
	return si
}

// mergeTopK merges the sorted runs buf[base:base+cur] (distances st.curD) and
// buf[base+cur:] (distances st.newD) into the k closest, writing the result
// back into buf[base:] and returning the truncated buf plus the new distance
// keys. Both inputs are sorted ascending, so the merge is a single linear
// pass with no distance recomputation.
func (st *knnScratch) mergeTopK(buf []index.Item, base, cur, k int, p geom.Vec3) ([]index.Item, []float64) {
	st.merged = st.merged[:0]
	st.mergedD = st.mergedD[:0]
	i, j := 0, 0
	for len(st.merged) < k && (i < cur || j < len(st.newD)) {
		if j >= len(st.newD) || (i < cur && st.curD[i] <= st.newD[j]) {
			st.merged = append(st.merged, buf[base+i])
			st.mergedD = append(st.mergedD, st.curD[i])
			i++
		} else {
			st.merged = append(st.merged, buf[base+cur+j])
			st.mergedD = append(st.mergedD, st.newD[j])
			j++
		}
	}
	buf = append(buf[:base], st.merged...)
	st.curD, st.mergedD = st.mergedD, st.curD
	return buf, st.curD
}

var _ index.ReadIndex = (*Epoch)(nil)

// planRange counts the shards a range query fans out to after MBR pruning —
// the Reply plan report, computed without touching the shard images.
func (e *Epoch) planRange(q geom.AABB) int {
	fan := 0
	for i := range e.shards {
		if sh := &e.shards[i]; sh.snap.Len() > 0 && q.Intersects(sh.bounds) {
			fan++
		}
	}
	return fan
}

// fanOut is the plan report of a materializing read: planRange for a range,
// planAll for a kNN.
func (e *Epoch) fanOut(req *Request) int {
	if req.Op == OpKNN {
		return e.planAll()
	}
	return e.planRange(req.Query)
}

// planAll is planRange for whole-epoch operations (kNN merges, joins):
// every non-empty shard participates.
func (e *Epoch) planAll() int {
	fan := 0
	for i := range e.shards {
		if e.shards[i].snap.Len() > 0 {
			fan++
		}
	}
	return fan
}

// dropCache releases the epoch's result cache wholesale; called exactly once,
// when the epoch retires. Queries still in flight on the epoch finish on the
// entry pointers they already hold.
func (e *Epoch) dropCache() {
	if e.cache != nil {
		e.cache.drop()
	}
}
