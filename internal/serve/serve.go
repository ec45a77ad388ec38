// Package serve is the concurrent spatial serving subsystem of spatialsim:
// the layer that takes the library from "runs experiments" to "serves
// traffic". The paper observes that simulation-science workloads are
// query-dominated between update waves — indexes are rebuilt, frozen, and
// then hammered with range/kNN traffic until the next timestep — so the
// serving layer splits exactly along that seam:
//
//   - the read side is a space-partitioned shard set, each shard the frozen
//     Compact image of one STR tile of the domain, grouped into an
//     immutable Epoch;
//   - the write side is a tile table (tiles.go): a cut partitions the items
//     into Config.Shards x 16 STR tiles, an id -> (tile, slot) map routes
//     every upsert and delete to its tile in O(1), and a publish rebuilds
//     only the tiles a batch dirtied — on one goroutine, leaving the other
//     cores to readers — while every clean tile's image is carried into the
//     next epoch by reference. A clean tile keeps no copy of its items: its
//     image's leaves are its items, and its slots are leaf positions. Only
//     a cut (after a bulk load — a batch longer than the live item count,
//     the bootstrap among them — after a re-cut when a tile's cardinality
//     drifts past a stated factor, and on the first publish after recovery)
//     rebuilds every tile, fanned out over Config.Workers. The epoch
//     pointer then swaps atomically.
//
// The paper's workload is "massive but minimal movement": a timestep moves
// many items a short way, so a batch dirties the few tiles it lands in and
// the publish costs what changed, not the dataset.
//
// Readers pin the current epoch with an atomic pointer + per-epoch refcount,
// so a swap never blocks a reader and a reader never observes half of two
// generations. Admission control bounds both in-flight queries and the wait
// queue behind them: saturation degrades into a bounded wait (shorter for
// background work) and overflow is shed with ErrOverload instead of
// collapsing into unbounded queueing. Every query runs under a context with a
// per-class default deadline (Config.Deadlines); a deadline that fires
// mid-fan-out degrades the reply to the partial result gathered so far
// (Reply.Degraded + per-shard errors) rather than discarding it.
// cmd/spatialserver fronts a Store with HTTP endpoints.
//
// With a persistence store attached (Config.Persist, see internal/persist
// and Open), the subsystem is durable: ingest batches are WAL-journaled as
// they are staged, a background snapshotter writes each published epoch's
// frozen shards into page-aligned segment files off the query path, and
// Open recovers the newest complete epoch — replaying the WAL tail, which
// reproduces both the pre-crash contents and the pre-crash epoch sequence
// numbers — before serving.
//
// Recovered shards are overlays of segment images
// (rtree.OverlayCompact) whichever way Config.Serving selects to obtain
// them: a snapshot's segment holds the tile images that changed since the
// save before it and references the rest in older segments. ServingHeap
// reads those files into memory and verifies every checksum, while
// ServingMapped mmaps them — recovery cost is O(open) regardless of dataset
// size, pages fault in on demand (so datasets larger than RAM serve), and
// the mappings are unmapped exactly once, when the recovered epoch retires.
// The first post-recovery update batch lazily re-seeds the tile table from
// the recovered epoch (one tile per persisted shard), keeping the open path
// free of item scans. The tile layout is a function of the staged batches
// alone, so WAL replay rebuilds the layout, and therefore the replies, the
// crashed process served. Apply is the one write path: concurrent Apply
// callers that queue behind one build share its publish, yet each batch is
// staged and journaled on its own, so replaying them publishes one epoch per
// batch. Query is the one read path, and a durable store's snapshotter is
// the only goroutine a Store starts.
package serve

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/par"
	"spatialsim/internal/persist"
	"spatialsim/internal/planner"
	"spatialsim/internal/rtree"
)

// ShardBuilder builds the frozen R-Tree image of one shard from the
// ID-sorted items of the STR tile it owns, on the caller's goroutine.
type ShardBuilder func(items []index.Item) *rtree.Compact

// RTreeBuilder returns a ShardBuilder backed by an STR-bulk-loaded R-Tree
// frozen into its compact layout — the only shard family the store serves.
func RTreeBuilder(cfg rtree.Config) ShardBuilder {
	return func(items []index.Item) *rtree.Compact { return rtree.FreezeItems(items, cfg) }
}

// ServingMode selects how a durable store serves recovered epochs.
type ServingMode string

const (
	// ServingHeap is the default: recovery reads the snapshot's segment
	// files onto the heap and verifies their checksums before serving R-Tree
	// shards as overlays of those images.
	ServingHeap ServingMode = "heap"
	// ServingMapped serves recovered R-Tree shards as zero-copy overlays of
	// the mmap'd segment files: recovery is O(open) — map, validate the
	// structural envelope, publish, replay the WAL tail — and the OS pages
	// shard data in lazily as queries touch it, so datasets larger than RAM
	// serve within whatever the page cache holds. The mappings are released
	// when the recovered epoch retires. Platforms without mmap run the heap
	// path.
	ServingMapped ServingMode = "mapped"
)

// Config configures a Store.
type Config struct {
	// Shards sizes the STR tile layout (<= 0 picks GOMAXPROCS): a cut makes
	// at most 16 tiles per shard, and every non-empty tile is one shard of
	// the epoch. The partitioner factors the bound into near-cubical x/y/z
	// cuts, so the epoch may hold fewer tiles than the bound (and never more
	// than the item count); Stats reports the actual layout.
	Shards int
	// Workers is the goroutine budget of a full epoch build — after a cut
	// or a recovery (<= 0 uses GOMAXPROCS). An incremental publish rebuilds
	// its dirty tiles on one goroutine.
	Workers int
	// MaxInFlight bounds concurrently executing queries; callers beyond the
	// bound wait (admission control; <= 0 picks 4x GOMAXPROCS).
	MaxInFlight int
	// MaxQueued bounds how many callers may wait for an in-flight slot before
	// admission control sheds with ErrOverload (<= 0 picks 4x MaxInFlight).
	// Background-priority requests (joins) are shed at a quarter of the
	// bound, so interactive traffic keeps queue headroom under overload.
	MaxQueued int
	// Deadlines is the per-query-class default deadline table (zero entries
	// mean no default). A class deadline applies only when the request's own
	// context carries none.
	Deadlines Deadlines
	// Breaker configures the circuit breaker guarding snapshot and WAL I/O of
	// a durable store (zero value picks the defaults; ignored when Persist is
	// nil). When the breaker is open, snapshots are skipped and WAL appends
	// are suspended instead of hammering a sick disk — serving continues in
	// memory and durability catches up when the disk recovers.
	Breaker BreakerConfig
	// Build constructs one shard image (nil uses RTreeBuilder with the
	// default R-Tree configuration). Every shard is an R-Tree: no other
	// index family beat it through Store.Query by more than the benchmark's
	// bound, and snapshot carrying and recovery work on R-Tree images. The
	// other families run in the reproduction (internal/experiments E5). Build
	// is kept only for the benchmark harness (bench/), which sets the
	// default.
	Build ShardBuilder
	// Planner has no effect. It is kept only for the benchmark harness.
	Planner *planner.Planner
	// CacheEntries bounds the per-epoch result cache (entries per epoch,
	// FIFO-evicted); <= 0 disables result caching. Epoch immutability makes
	// cached results valid for the epoch's lifetime, and epoch retirement
	// drops the whole cache — there is no invalidation protocol.
	CacheEntries int
	// Persist enables durability: update batches are journaled to the
	// store's WAL as they are staged, published epochs are snapshotted to
	// page-aligned segment files by a background snapshotter, and Open
	// recovers the newest complete epoch (replaying the WAL tail) on boot.
	// Nil serves purely in memory, as before.
	Persist *persist.Store
	// SnapshotEvery persists only every Nth published epoch (<= 0 picks 1 —
	// every epoch). Skipped epochs stay recoverable through the WAL.
	SnapshotEvery int
	// Serving selects the recovery read path of a durable store ("" picks
	// ServingHeap; ignored when Persist is nil). See ServingMapped for the
	// zero-copy mode.
	Serving ServingMode
	// Metrics registers the store's serving state as named series on the
	// given registry (per-query-class latency histograms, the paper's cost
	// categories, robustness and cache counters, epoch lifecycle series) —
	// see metrics.go for the catalog. Nil disables metrics; the per-query
	// cost with metrics on is one histogram observation.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxInFlight
	}
	c.Breaker = c.Breaker.withDefaults()
	if c.Build == nil {
		c.Build = RTreeBuilder(rtree.Config{})
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1
	}
	if c.Serving == "" {
		c.Serving = ServingHeap
	}
	return c
}

// Update is one element mutation of an ingest batch: an upsert of (ID, Box),
// or a removal when Delete is set. It is the persistence layer's WAL record
// element, aliased here so serving and durability speak one type.
type Update = persist.Update

// Store is the sharded, epoch-versioned serving store. Query is safe for
// unbounded concurrent use and never blocks on ingestion; Apply is safe to
// call concurrently with queries and with itself.
type Store struct {
	cfg Config

	epoch atomic.Pointer[Epoch]

	// buildMu serializes freeze/swap cycles (one publish at a time);
	// stagingMu guards the tile table for the short apply window only, so
	// staging new batches overlaps an in-progress tile build.
	buildMu   sync.Mutex
	stagingMu sync.Mutex
	tiles     *tileTable
	// scratch holds the dirty tiles' item copies of an incremental publish
	// (guarded by buildMu; tile builds copy items into their own storage, so
	// it is reused, and dropped after a full rebuild).
	scratch []index.Item
	// stagedSeq is the WAL sequence of the last batch staged (guarded by
	// stagingMu); each epoch records the value it was built under, so a
	// snapshot knows exactly which WAL records it covers.
	stagedSeq uint64
	// seedFrom defers the post-recovery tile-table seed (guarded by
	// stagingMu): recovery publishes the recovered epoch without scanning its
	// items — the O(open) property of mapped serving — and the first Apply
	// materializes them into the table before staging its own batch, so
	// replayed deletes still find their targets. Nil once seeded.
	seedFrom *Epoch

	sem      chan struct{}
	inFlight atomic.Int64
	peak     atomic.Int64
	queued   atomic.Int64
	// releaseSlot is admit's release func, built once — handing every caller
	// the same closure keeps the admission path allocation-free.
	releaseSlot func()

	// avgQueryNs is the EWMA of executed-query service time feeding
	// RetryAfterHint (see errors.go).
	avgQueryNs atomic.Int64

	queries      atomic.Int64
	results      atomic.Int64
	swaps        atomic.Int64
	retired      atomic.Int64
	joins        atomic.Int64
	joinPairs    atomic.Int64
	shed         atomic.Int64
	degraded     atomic.Int64
	deadlineHits atomic.Int64

	// The cache counters aggregate across epochs (each epoch's cache map is
	// its own).
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheCoalesced atomic.Int64

	// metrics is the resolved instrument set (nil when Config.Metrics is).
	// costRetired accumulates the shard counters of retired epochs so the
	// cost-category series stay monotonic across epoch swaps (a swap resets
	// the live shard counters with the shards themselves).
	metrics     *storeMetrics
	costMu      sync.Mutex
	costRetired instrument.CounterSnapshot

	// Durability (all nil/zero when cfg.Persist is nil).
	snapCh        chan struct{}
	snapDone      chan struct{}
	snapClosed    atomic.Bool
	snapWg        sync.WaitGroup
	snapMu        sync.Mutex // serializes snapshot attempts (background + forced)
	lastPersisted atomic.Uint64
	snapshots     atomic.Int64
	snapErrs      atomic.Int64
	walErrs       atomic.Int64
	walSkipped    atomic.Int64
	snapSkipped   atomic.Int64
	lastSnapErr   atomic.Pointer[string]
	recovery      RecoveryInfo
	// mapping is the mmap'd segment files backing the recovered epoch's
	// zero-copy shards (mapped serving only); cleared and closed when that epoch
	// retires. The pointer outlives the epoch reference only for metrics.
	mapping atomic.Pointer[persist.MappedSegment]
	// breaker guards persistence I/O: snapshot failures trip it, an open
	// breaker sheds snapshot attempts and WAL appends until the cooldown
	// probe succeeds (nil when cfg.Persist is nil).
	breaker *breaker
}

// RecoveryInfo describes what Open recovered from the persistence store.
type RecoveryInfo struct {
	// Recovered is true when a durable store was attached (even if it was
	// empty — a fresh data dir recovers to epoch 0).
	Recovered bool `json:"recovered"`
	// Epoch is the snapshot epoch that was loaded (0 if none existed).
	Epoch uint64 `json:"epoch"`
	// Segment is the segment file the epoch came from ("" if none).
	Segment string `json:"segment,omitempty"`
	// Items is the number of items the loaded snapshot held.
	Items int `json:"items"`
	// ReplayedBatches is the number of WAL tail batches replayed on top.
	ReplayedBatches int `json:"replayed_batches"`
	// SkippedCorrupt counts snapshot generations recovery skipped because
	// they failed verification.
	SkippedCorrupt int `json:"skipped_corrupt"`
	// Serving is the mode the recovery ran under ("heap" or "mapped").
	Serving ServingMode `json:"serving,omitempty"`
	// ZeroCopyShards counts shards served as zero-copy overlays of the
	// mapped segment (0 in heap mode and on platforms without mmap).
	ZeroCopyShards int `json:"zero_copy_shards"`
}

// New returns an empty store serving epoch 0 (no shards). New is Open under
// its historical name: it fails (instead of serving torn data) when a
// durable store's recovery finds only unverifiable snapshots.
func New(cfg Config) (*Store, error) {
	return Open(cfg)
}

// Close takes a final snapshot of the current epoch of a durable store and
// stops its snapshotter, so a clean shutdown is always fully recoverable
// without WAL replay; an in-memory store has nothing to stop. Queries and
// Apply keep working (the last epoch stays current), but nothing more is
// snapshotted.
func (s *Store) Close() {
	if s.cfg.Persist != nil {
		if s.snapClosed.CompareAndSwap(false, true) {
			close(s.snapDone)
		}
		s.snapWg.Wait()
	}
}

// ValidateBatch refuses an update batch the store cannot index: every
// upsert's box must be finite and ordered (geom.AABB.IsValid). One bad box
// poisons the bounds of its tile and of the whole epoch, so the batch is
// refused whole, before anything is staged or journaled. Store.Apply and the
// cluster coordinator call it; the error wraps ErrBadRequest.
func ValidateBatch(batch []Update) error {
	for i, u := range batch {
		if !u.Delete && !u.Box.IsValid() {
			return fmt.Errorf("%w: update %d (id %d): box %v is not finite and ordered", ErrBadRequest, i, u.ID, u.Box)
		}
	}
	return nil
}

// Bootstrap stages the initial dataset and publishes the first epoch. On a
// durable store the dataset is journaled like any other upsert batch, so a
// crash before the first snapshot still recovers it from the WAL.
func (s *Store) Bootstrap(items []index.Item) (uint64, error) {
	batch := make([]Update, len(items))
	for i, it := range items {
		batch[i] = Update{ID: it.ID, Box: it.Box}
	}
	return s.Apply(batch)
}

// Apply stages one update batch and synchronously freezes + swaps an epoch
// that includes it, returning that epoch's sequence number. Staging happens
// before the build lock is taken, so new batches land in the tile table
// while an earlier epoch build is still running, and every Apply waiting
// behind that build is answered by the next publish; readers are never
// blocked either way — they keep answering from the previous epoch until the
// atomic pointer swap, and pinned readers finish on the epoch they pinned. A
// batch ValidateBatch refuses changes nothing.
func (s *Store) Apply(batch []Update) (uint64, error) {
	return s.ApplyCtx(context.Background(), batch)
}

// ApplyCtx is Apply with the caller's context threaded through for tracing:
// a context carrying an obs.Trace gets stage/wal_append/freeze spans. The
// context does not cancel the apply — an epoch build, once started, always
// publishes.
func (s *Store) ApplyCtx(ctx context.Context, batch []Update) (uint64, error) {
	if err := ValidateBatch(batch); err != nil {
		return 0, err
	}
	return s.applyBatchCtx(ctx, batch, true), nil
}

// applyBatchCtx stages the batch (journaling it unless replaying — recovery
// replays batches already in the WAL), then freezes and swaps.
func (s *Store) applyBatchCtx(ctx context.Context, batch []Update, journal bool) uint64 {
	s.stage(ctx, batch, journal)
	fs := obs.SpanFromContext(ctx).Child("freeze")
	seq := s.freezeAndSwap()
	fs.End()
	return seq
}

// stage applies one batch to the tile table and journals it unless
// replaying. The WAL append happens under stagingMu, which makes the WAL
// order identical to the staging order — the property replay depends on.
func (s *Store) stage(ctx context.Context, batch []Update, journal bool) {
	span := obs.SpanFromContext(ctx)
	st := span.Child("stage")
	s.stagingMu.Lock()
	s.seedTilesLocked()
	s.tiles.stage(batch)
	if journal && s.cfg.Persist != nil {
		ws := span.Child("wal_append")
		var w0 time.Time
		if s.metrics != nil && s.metrics.walSeconds != nil {
			w0 = time.Now()
		}
		if !s.breaker.allow() {
			// Breaker open: skip the append instead of hammering a sick disk
			// from under the staging lock. The batch stays live in memory and
			// is covered by the next snapshot that succeeds.
			s.walSkipped.Add(1)
			ws.Set("skipped", true)
		} else if seq, err := s.cfg.Persist.LogBatch(batch); err != nil {
			// Serving keeps going on WAL failure: the batch is live in
			// memory and will be covered by the next snapshot that succeeds.
			// No retry here — LogBatch runs under stagingMu and must fail
			// fast; the failure charges the breaker instead.
			s.breaker.onResult(err)
			s.walErrs.Add(1)
			s.setLastSnapErr(err)
			ws.Set("error", err.Error())
		} else {
			s.breaker.onResult(nil)
			s.stagedSeq = seq
		}
		if !w0.IsZero() {
			s.metrics.walSeconds.Observe(time.Since(w0))
		}
		ws.End()
	}
	s.stagingMu.Unlock()
	st.End()
}

// freezeAndSwap publishes the staged state as the next epoch. The layout is
// taken under buildMu *after* the lock is acquired, so an Apply that waited
// behind another build picks up every batch staged in the meantime
// (coalescing, and the returned epoch always contains the caller's own
// batch). Only dirty tiles are copied and rebuilt; clean tiles carry their
// images into the new epoch by reference. A full rebuild (after a cut or a
// recovery) fans the tiles out over cfg.Workers; an incremental one builds
// its dirty tiles on this goroutine alone, leaving the other cores to
// readers. Once built, the tiles hand their items over to their images
// (tileTable.drop), under stagingMu again.
func (s *Store) freezeAndSwap() uint64 {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	var t0 time.Time
	if s.metrics != nil {
		t0 = time.Now()
	}
	s.stagingMu.Lock()
	s.seedTilesLocked()
	shards, builds, full, scratch := s.tiles.plan(s.scratch)
	covered, items := s.stagedSeq, s.tiles.len()
	s.stagingMu.Unlock()

	build := func(_, i int) {
		b := &builds[i]
		slices.SortFunc(b.items, func(x, y index.Item) int { return cmp.Compare(x.ID, y.ID) })
		sh := newShard(boundsOf(b.items), s.cfg.Build(b.items))
		b.tile.image = sh
		shards[b.shard] = sh
	}
	if full {
		par.ForTasks(len(builds), s.cfg.Workers, build)
		s.scratch = nil
	} else {
		for i := range builds {
			build(0, i)
		}
		s.scratch = scratch[:0]
	}
	s.stagingMu.Lock()
	s.tiles.drop(builds)
	s.stagingMu.Unlock()

	prev := s.epoch.Load()
	next := newEpoch(prev.seq+1, shards, items)
	next.covered = covered
	s.attachCache(next)
	s.epoch.Store(next)
	s.swaps.Add(1)
	s.notifySnapshotter()
	// Retirement: the superseded epoch is counted retired by whoever observes
	// its pin count at zero first — the swapper (no readers were on it) or
	// the last unpinning reader. No watcher goroutine, no polling.
	prev.superseded.Store(true)
	s.maybeRetire(prev)
	if s.metrics != nil {
		s.metrics.buildSeconds.Observe(time.Since(t0))
	}
	return next.seq
}

// seedTilesLocked materializes the recovered epoch's items into the tile
// table, once, on the first publish after recovery. Caller holds
// stagingMu. Until this runs, recovery cost is independent of dataset size;
// the seed is the deferred O(items) scan, paid only when the content
// actually starts changing.
func (s *Store) seedTilesLocked() {
	if s.seedFrom == nil {
		return
	}
	// Pin the recovered epoch for the scan: in mapped mode the shards read
	// straight out of the mmap'd segment, and the pin guarantees the epoch
	// cannot retire (and unmap that segment) mid-scan no matter what
	// concurrent snapshot or publish activity does. The epoch cannot be
	// superseded yet — every publish path seeds (under stagingMu) before it
	// plans — so a direct pin without the acquire retry loop is sound here.
	e := s.seedFrom
	e.pins.Add(1)
	s.tiles.seed(e.shards)
	s.seedFrom = nil
	s.release(e)
}

// maybeRetire counts e as retired exactly once, once it is superseded and
// unpinned — the observable end of the epoch's lifecycle (and the hook a
// pooled-resource epoch would reclaim on).
func (s *Store) maybeRetire(e *Epoch) {
	if e.pins.Load() == 0 && e.superseded.Load() && e.retireOnce.CompareAndSwap(false, true) {
		e.dropCache()
		for _, fn := range e.onRetire {
			fn()
		}
		s.foldRetiredCounters(e)
		s.retired.Add(1)
	}
}

// attachCache gives a freshly built epoch its result cache when caching is
// enabled.
func (s *Store) attachCache(e *Epoch) {
	if s.cfg.CacheEntries > 0 {
		e.cache = newEpochCache(s.cfg.CacheEntries)
	}
}

// Current returns the epoch readers would pin right now (for inspection; the
// epoch may be superseded by the time the caller uses it).
func (s *Store) Current() *Epoch { return s.epoch.Load() }

// acquire pins the current epoch against retirement accounting. The
// increment-then-recheck loop closes the race with a concurrent swap: if the
// pointer moved between load and pin, the pin is undone (through release, so
// a transient pin on a superseded epoch still triggers its retirement) and
// the acquire retries.
func (s *Store) acquire() *Epoch {
	for {
		e := s.epoch.Load()
		e.pins.Add(1)
		if s.epoch.Load() == e {
			return e
		}
		s.release(e)
	}
}

// release drops a pin; the last pin off a superseded epoch retires it.
func (s *Store) release(e *Epoch) {
	if e.pins.Add(-1) == 0 {
		s.maybeRetire(e)
	}
}

// admit acquires an in-flight slot under the load-shedding policy and returns
// the release func. A free slot admits immediately; otherwise the caller
// queues — bounded by cfg.MaxQueued (background priority at a quarter of the
// bound) — and waits for a slot or its context, whichever comes first. A full
// queue sheds with ErrOverload instead of waiting forever: under sustained
// overload the store answers "come back later" in microseconds rather than
// stacking callers until everything times out.
func (s *Store) admit(ctx context.Context, pri Priority) (func(), error) {
	select {
	case s.sem <- struct{}{}:
	default:
		limit := int64(s.cfg.MaxQueued)
		if pri == PriorityBackground {
			limit = max(limit/4, 1)
		}
		if s.queued.Add(1) > limit {
			s.queued.Add(-1)
			return nil, ErrOverload
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, mapCtxErr(ctx.Err())
		}
	}
	n := s.inFlight.Add(1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return s.releaseSlot, nil
}

// JoinRequest shapes one epoch-pinned self-join.
type JoinRequest struct {
	// Eps is the distance threshold between boxes; 0 means intersection join.
	Eps float64
	// Workers is the goroutine budget of the whole join — the epoch's
	// item gather, the grid's cell assignment and the parallel task run
	// (<= 0 uses GOMAXPROCS, bounded by the work).
	Workers int
	// Limit caps the pairs the reply carries: the first Limit in canonical
	// order, while the reply's count stays exact. Only those pairs are
	// built and sorted; the rest are counted. <= 0 returns every pair.
	Limit int
}

// Validate refuses a join no engine can answer: Eps must be finite and
// non-negative. Store.Query and the cluster coordinator call it before any
// engine runs; the error wraps ErrBadRequest.
func (jr JoinRequest) Validate() error {
	if math.IsNaN(jr.Eps) || math.IsInf(jr.Eps, 0) || jr.Eps < 0 {
		return fmt.Errorf("%w: join eps %v must be finite and non-negative", ErrBadRequest, jr.Eps)
	}
	return nil
}

// JoinReply is the outcome of one epoch-pinned self-join.
type JoinReply struct {
	// Epoch is the generation the join ran against.
	Epoch uint64
	// Items is the number of elements joined.
	Items int
	// Count is the exact number of result pairs, also when Limit kept
	// only the first few in Pairs.
	Count int
	// Pairs holds the result (the first Limit pairs under a limit) in
	// canonical (sorted) order.
	Pairs []join.Pair
	// Stats is the parallel execution accounting.
	Stats join.RunStats
}

// SelfJoin runs the paper's headline workload — an epsilon self-join — over
// one pinned epoch: the epoch's items are materialized from its frozen
// shards, partitioned into the grid join's cells, and the plan's tasks are
// tiled across the worker pool. The epoch stays pinned for
// the duration, so concurrent ingestion keeps swapping generations without
// ever tearing the join's input; the join occupies one admission slot like
// a query. Thin wrapper over Query.
func (s *Store) SelfJoin(req JoinRequest) JoinReply {
	r := s.Query(Request{Op: OpJoin, Join: req})
	return JoinReply{Epoch: r.Epoch, Items: r.JoinItems, Count: r.JoinCount, Pairs: r.Pairs, Stats: r.JoinStats}
}

// ShardStats is the per-shard slice of a Stats snapshot.
type ShardStats struct {
	Items    int                        `json:"items"`
	Bounds   geom.AABB                  `json:"bounds"`
	Counters instrument.CounterSnapshot `json:"counters"`
}

// PlannerStats is kept only for the benchmark harness, which prints it when
// present; Stats().Planner is always nil.
type PlannerStats struct {
	Families map[string]int `json:"families"`
}

// CacheStats is the Stats slice describing the epoch result cache (nil when
// caching is disabled). Hit/miss/coalesced counters aggregate across epochs;
// Entries is the current epoch's live entry count.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats is a point-in-time view of the store's serving state.
type Stats struct {
	Epoch         uint64       `json:"epoch"`
	Items         int          `json:"items"`
	Shards        []ShardStats `json:"shards"`
	EpochSwaps    int64        `json:"epoch_swaps"`
	EpochsRetired int64        `json:"epochs_retired"`
	EpochPins     int64        `json:"epoch_pins"`
	Queries       int64        `json:"queries"`
	Results       int64        `json:"results"`
	Joins         int64        `json:"joins"`
	JoinPairs     int64        `json:"join_pairs"`
	UpdatesStaged int64        `json:"updates_staged"`
	InFlight      int64        `json:"in_flight"`
	PeakInFlight  int64        `json:"peak_in_flight"`
	MaxInFlight   int          `json:"max_in_flight"`
	// Queued is the number of requests currently waiting for an in-flight
	// slot; MaxQueued is the shedding bound.
	Queued    int64 `json:"queued"`
	MaxQueued int   `json:"max_queued"`
	// Shed counts requests rejected by admission control (ErrOverload);
	// Degraded counts replies that returned partial results; DeadlineExceeded
	// counts queries that died on their deadline with no usable result.
	Shed             int64 `json:"shed"`
	Degraded         int64 `json:"degraded"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// QueryLatencies holds live per-class latency summaries from the metrics
	// histograms (nil unless the store was opened with Config.Metrics).
	QueryLatencies []QueryLatencyStat `json:"query_latencies,omitempty"`
	// Planner is always nil (see PlannerStats).
	Planner *PlannerStats `json:"planner,omitempty"`
	// Cache reports the epoch result cache (nil when caching is disabled).
	Cache *CacheStats `json:"cache,omitempty"`
	// Durability reports persistence state (nil for in-memory stores).
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Stats returns a snapshot of the store's counters and the current epoch's
// per-shard layout and instrumentation.
func (s *Store) Stats() Stats {
	e := s.acquire()
	defer s.release(e)
	st := Stats{
		Epoch:         e.seq,
		Items:         e.items,
		EpochSwaps:    s.swaps.Load(),
		EpochsRetired: s.retired.Load(),
		// Exclude this Stats call's own pin, so an idle store reports 0.
		EpochPins:        e.pins.Load() - 1,
		Queries:          s.queries.Load(),
		Results:          s.results.Load(),
		Joins:            s.joins.Load(),
		JoinPairs:        s.joinPairs.Load(),
		InFlight:         s.inFlight.Load(),
		PeakInFlight:     s.peak.Load(),
		MaxInFlight:      s.cfg.MaxInFlight,
		Queued:           s.queued.Load(),
		MaxQueued:        s.cfg.MaxQueued,
		Shed:             s.shed.Load(),
		Degraded:         s.degraded.Load(),
		DeadlineExceeded: s.deadlineHits.Load(),
		QueryLatencies:   s.queryLatencyStats(),
		Durability:       s.durabilityStats(),
	}
	s.stagingMu.Lock()
	st.UpdatesStaged = s.tiles.updates
	s.stagingMu.Unlock()
	st.Shards = make([]ShardStats, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		st.Shards[i] = ShardStats{Items: sh.Len(), Bounds: sh.bounds, Counters: sh.snap.Counters().Snapshot()}
	}
	if s.cfg.CacheEntries > 0 {
		cs := &CacheStats{
			Capacity:  s.cfg.CacheEntries,
			Hits:      s.cacheHits.Load(),
			Misses:    s.cacheMisses.Load(),
			Coalesced: s.cacheCoalesced.Load(),
		}
		if e.cache != nil {
			cs.Entries = e.cache.size()
		}
		// Coalesced waits are hits the coalescing window absorbed: the work
		// ran once for the whole herd.
		if total := cs.Hits + cs.Coalesced + cs.Misses; total > 0 {
			cs.HitRate = float64(cs.Hits+cs.Coalesced) / float64(total)
		}
		st.Cache = cs
	}
	return st
}
