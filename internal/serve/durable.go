package serve

// Durability wiring: construction (Open) with crash recovery, the background
// snapshotter that persists published epochs without ever blocking readers,
// and the stats surface. The division of labor with internal/persist is
// strict — persist owns bytes (segments, manifest, checksums, recovery
// source selection), serve owns meaning (what a shard is, how an epoch is
// rebuilt from records, when snapshots happen).

import (
	"context"
	"fmt"
	"time"

	"spatialsim/internal/persist"
)

// Open constructs a store. With Config.Persist set it first recovers: the
// newest verifiable epoch snapshot is loaded (its R-Tree shards serve
// directly as overlays of the segment images), the tile table is re-seeded
// from it (one tile per persisted shard), and the WAL tail beyond the
// snapshot is replayed batch by batch — reproducing the pre-crash content,
// tile layout and epoch sequence numbers — and then the snapshotter starts,
// the only goroutine a Store runs of its own. Open fails (rather than
// serving torn data) only when snapshots exist but none verifies.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:   cfg,
		tiles: newTileTable(cfg.Shards),
		sem:   make(chan struct{}, cfg.MaxInFlight),
	}
	s.releaseSlot = func() {
		s.inFlight.Add(-1)
		<-s.sem
	}
	empty := newEpoch(0, nil, 0)
	s.attachCache(empty)
	s.epoch.Store(empty)

	if cfg.Persist != nil {
		s.breaker = newBreaker(cfg.Breaker)
		if err := s.recoverFromPersist(); err != nil {
			return nil, err
		}
		s.snapCh = make(chan struct{}, 1)
		s.snapDone = make(chan struct{})
		s.snapWg.Add(1)
		go s.snapshotLoop()
	}
	// Metrics come online after recovery: replayed batches are rebuild work,
	// not serving traffic, so they stay out of the latency histograms.
	s.initMetrics(cfg.Metrics)
	return s, nil
}

// recoverFromPersist loads the persisted state into the (not yet started)
// store. Shards overlay the segment images in both modes — read onto the
// heap and checksummed in heap mode, mmap'd in mapped mode, where recovery
// work is O(open) — and no shard is rebuilt or item scanned either way (the
// tile table re-seed is deferred to the first Apply via seedFrom).
func (s *Store) recoverFromPersist() error {
	mapped := s.cfg.Serving == ServingMapped
	rec, err := s.cfg.Persist.Recover(persist.RecoverOptions{Workers: s.cfg.Workers, Mapped: mapped})
	if err != nil {
		return fmt.Errorf("serve: recovery: %w", err)
	}
	s.recovery = RecoveryInfo{
		Recovered:       true,
		Epoch:           rec.EpochSeq,
		Segment:         rec.Segment,
		Items:           rec.Items(),
		ReplayedBatches: len(rec.Pending),
		SkippedCorrupt:  rec.SkippedCorrupt,
		Serving:         s.cfg.Serving,
		ZeroCopyShards:  rec.ZeroCopyShards,
	}

	if len(rec.Shards) > 0 || rec.EpochSeq > 0 {
		shards := make([]Shard, len(rec.Shards))
		for i, sr := range rec.Shards {
			shards[i] = newShard(sr.Bounds, sr.RTree)
		}
		e := newEpoch(rec.EpochSeq, shards, rec.Items())
		e.covered = rec.BatchSeq
		if rec.Mapping != nil {
			// The mapping lives exactly as long as the epoch serving from it:
			// retirement (last pin off a superseded epoch) unmaps instead of
			// freeing.
			ms := rec.Mapping
			s.mapping.Store(ms)
			e.onRetire = append(e.onRetire, func() {
				s.mapping.CompareAndSwap(ms, nil)
				if err := ms.Close(); err != nil {
					// A second unmap means the retire-once protocol broke:
					// readers may still hold views of the first unmap. That is
					// a memory-safety bug, not a degraded mode — fail loudly.
					panic(fmt.Sprintf("serve: mapped epoch %d retired twice: %v", e.seq, err))
				}
			})
		}
		s.attachCache(e)
		s.epoch.Store(e)

		// Defer the tile-table seed to the first Apply: recovery publishes
		// without scanning a single item, and replayed deletes still find
		// their targets because stage seeds before staging.
		s.stagingMu.Lock()
		s.seedFrom = e
		s.stagedSeq = rec.BatchSeq
		s.stagingMu.Unlock()
	} else {
		s.stagingMu.Lock()
		s.stagedSeq = rec.BatchSeq
		s.stagingMu.Unlock()
	}
	s.lastPersisted.Store(rec.EpochSeq)

	// Replay the WAL tail batch by batch: each pre-crash Apply produced one
	// epoch, so replay reproduces the same epoch sequence numbers — a
	// restarted server answers with the same epoch labels it crashed with.
	for _, br := range rec.Pending {
		s.stagingMu.Lock()
		s.stagedSeq = br.Seq
		s.stagingMu.Unlock()
		s.applyBatchCtx(context.Background(), br.Updates, false)
	}
	return nil
}

// Recovery returns what Open recovered (zero value for in-memory stores).
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// notifySnapshotter wakes the snapshotter without blocking; a pending wakeup
// already covers the newly published epoch (the snapshotter always reads the
// current pointer).
func (s *Store) notifySnapshotter() {
	if s.snapCh == nil {
		return
	}
	select {
	case s.snapCh <- struct{}{}:
	default:
	}
}

// snapshotLoop persists published epochs in the background. Readers are
// never blocked: the loop works on the immutable shard snapshots of a live
// epoch reference, off the query path. On shutdown it takes a final
// snapshot, so a clean Close never needs WAL replay.
func (s *Store) snapshotLoop() {
	defer s.snapWg.Done()
	for {
		select {
		case <-s.snapCh:
			if err := s.snapshotIfNeeded(false); err != nil {
				s.snapErrs.Add(1)
				s.setLastSnapErr(err)
			}
		case <-s.snapDone:
			if err := s.snapshotIfNeeded(true); err != nil {
				s.snapErrs.Add(1)
				s.setLastSnapErr(err)
			}
			return
		}
	}
}

// snapshotIfNeeded persists the current epoch unless it is already persisted
// or (when not forced) younger than the SnapshotEvery cadence allows.
func (s *Store) snapshotIfNeeded(force bool) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Pin the epoch for the whole persist: shardRecords reads shard snapshots
	// that may be zero-copy overlays of the mmap'd segment, and an unpinned
	// load would let a concurrent swap retire the epoch — running its unmap
	// hook — while SaveEpoch is still encoding from the mapped bytes. The pin
	// makes the snapshot race-free against the first post-recovery Apply.
	e := s.acquire()
	defer s.release(e)
	last := s.lastPersisted.Load()
	if e.seq <= last {
		return nil
	}
	if !force && e.seq-last < uint64(s.cfg.SnapshotEvery) {
		return nil
	}
	recs := shardRecords(e)
	var t0 time.Time
	if s.metrics != nil && s.metrics.snapshotSeconds != nil {
		t0 = time.Now()
	}
	err := s.breaker.do(force, s.cfg.Breaker.Retries, s.cfg.Breaker.Backoff, func() error {
		return s.cfg.Persist.SaveEpoch(e.seq, e.covered, recs)
	})
	if !t0.IsZero() && err != errBreakerOpen {
		s.metrics.snapshotSeconds.Observe(time.Since(t0))
	}
	if err == errBreakerOpen {
		// Open circuit: durability is degraded, not failed — the attempt is
		// counted as skipped and the epoch stays covered by the WAL (or by the
		// next snapshot once the probe closes the breaker).
		s.snapSkipped.Add(1)
		return nil
	}
	if err != nil {
		return err
	}
	s.lastPersisted.Store(e.seq)
	s.snapshots.Add(1)
	return nil
}

// Snapshot forces a synchronous snapshot of the current epoch (the /snapshot
// endpoint) and returns the persisted epoch sequence. On a store without
// persistence it returns an error.
func (s *Store) Snapshot() (uint64, error) {
	if s.cfg.Persist == nil {
		return 0, fmt.Errorf("serve: store has no persistence configured")
	}
	if err := s.snapshotIfNeeded(true); err != nil {
		s.snapErrs.Add(1)
		s.setLastSnapErr(err)
		return 0, err
	}
	return s.lastPersisted.Load(), nil
}

// shardRecords converts an epoch's shards into their durable form: each
// R-Tree image is transcribed natively.
func shardRecords(e *Epoch) []persist.ShardRecord {
	recs := make([]persist.ShardRecord, len(e.shards))
	for i := range e.shards {
		recs[i] = persist.ShardRecord{Bounds: e.shards[i].bounds, RTree: e.shards[i].snap}
	}
	return recs
}

func (s *Store) setLastSnapErr(err error) {
	msg := err.Error()
	s.lastSnapErr.Store(&msg)
}

// DurabilityStats is the Stats slice describing persistence state.
type DurabilityStats struct {
	LastPersistedEpoch uint64       `json:"last_persisted_epoch"`
	Snapshots          int64        `json:"snapshots"`
	SnapshotErrors     int64        `json:"snapshot_errors"`
	WALErrors          int64        `json:"wal_errors"`
	LastError          string       `json:"last_error,omitempty"`
	BatchesLogged      int64        `json:"batches_logged"`
	SnapshotBytes      int64        `json:"snapshot_bytes"`
	Rotations          int64        `json:"rotations"`
	Recovery           RecoveryInfo `json:"recovery"`
	// BreakerState is the persistence circuit breaker's current state
	// (closed / half-open / open); BreakerTrips counts how many times it has
	// opened. WALSkipped and SnapshotsSkipped count persistence work the open
	// breaker shed — the observable footprint of degraded durability.
	BreakerState     string `json:"breaker_state"`
	BreakerTrips     int64  `json:"breaker_trips"`
	WALSkipped       int64  `json:"wal_skipped"`
	SnapshotsSkipped int64  `json:"snapshots_skipped"`
}

// durabilityStats assembles the durability slice of a Stats snapshot (nil
// for in-memory stores).
func (s *Store) durabilityStats() *DurabilityStats {
	if s.cfg.Persist == nil {
		return nil
	}
	ps := s.cfg.Persist.Stats()
	d := &DurabilityStats{
		LastPersistedEpoch: s.lastPersisted.Load(),
		Snapshots:          s.snapshots.Load(),
		SnapshotErrors:     s.snapErrs.Load(),
		WALErrors:          s.walErrs.Load(),
		BatchesLogged:      ps.BatchesLogged,
		SnapshotBytes:      ps.SnapshotBytes,
		Rotations:          ps.Rotations,
		Recovery:           s.recovery,
		BreakerState:       s.breaker.state(),
		BreakerTrips:       s.breaker.tripCount(),
		WALSkipped:         s.walSkipped.Load(),
		SnapshotsSkipped:   s.snapSkipped.Load(),
	}
	if msg := s.lastSnapErr.Load(); msg != nil {
		d.LastError = *msg
	}
	return d
}
