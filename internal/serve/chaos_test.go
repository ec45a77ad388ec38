package serve

// Chaos soak: a durable store is driven with concurrent query and update load
// while the disk fails, tears and stalls underneath it, across clean-shutdown
// and crash-abandon restart rounds. The gate is zero wrong-answer events —
// under every injected fault the store may degrade (partial replies, shed
// requests, skipped snapshots) but must never answer with data it was never
// given:
//
//   - every item a query returns must carry a box that was at some point
//     assigned to that ID (WAL writes may fail, so an old box or a deleted
//     item may legitimately resurface after a crash — a box from nowhere may
//     not), and it must intersect the query box;
//   - at every quiesce point (faults disarmed, load stopped) a full-universe
//     query must return exactly the store's current contents;
//   - every recovery must load only history-consistent items.
//
// CHAOS_ROUNDS raises the restart-round count (CI's chaos job runs 8; the
// default 3 keeps the suite fast).

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
)

// chaosHistory tracks, per ID, every box ever assigned plus the current
// in-memory truth. Readers validate against the history set (membership is
// monotone under concurrent writes); quiesce checks compare against current.
type chaosHistory struct {
	mu      sync.RWMutex
	boxes   map[int64]map[geom.AABB]bool
	current map[int64]geom.AABB
}

func newChaosHistory() *chaosHistory {
	return &chaosHistory{boxes: map[int64]map[geom.AABB]bool{}, current: map[int64]geom.AABB{}}
}

// stage records a batch as assigned-history before it is applied, so any box
// a reader can possibly observe is already in the set.
func (h *chaosHistory) stage(batch []Update) {
	h.mu.Lock()
	for _, u := range batch {
		if u.Delete {
			delete(h.current, u.ID)
			continue
		}
		set := h.boxes[u.ID]
		if set == nil {
			set = map[geom.AABB]bool{}
			h.boxes[u.ID] = set
		}
		set[u.Box] = true
		h.current[u.ID] = u.Box
	}
	h.mu.Unlock()
}

// validate reports "" or a wrong-answer description for one returned item.
func (h *chaosHistory) validate(it index.Item, query geom.AABB) string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	set := h.boxes[it.ID]
	if set == nil {
		return fmt.Sprintf("item %d was never assigned", it.ID)
	}
	if !set[it.Box] {
		return fmt.Sprintf("item %d returned with a box never assigned to it: %+v", it.ID, it.Box)
	}
	if !it.Box.Intersects(query) {
		return fmt.Sprintf("item %d box does not intersect the query box", it.ID)
	}
	return ""
}

// snapshotCurrent copies the current truth for a quiesce-point exact check.
func (h *chaosHistory) snapshotCurrent() map[int64]geom.AABB {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[int64]geom.AABB, len(h.current))
	for id, b := range h.current {
		out[id] = b
	}
	return out
}

func TestChaosSoak(t *testing.T) {
	rounds := 3
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			rounds = n
		}
	}
	const (
		ids      = 512
		loadTime = 150 * time.Millisecond
		seed     = 20260807
	)
	dir := t.TempDir()
	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(64, 64, 1e6))
	hist := newChaosHistory()
	var gen atomic.Int64 // global generation counter: every assigned box is unique

	// wrong collects wrong-answer events across all goroutines.
	var wrongMu sync.Mutex
	var wrong []string
	report := func(msg string) {
		wrongMu.Lock()
		if len(wrong) < 20 {
			wrong = append(wrong, msg)
		}
		wrongMu.Unlock()
	}

	for round := 0; round < rounds; round++ {
		faultinject.Reset() // recovery always runs on a healthy disk
		ps, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatalf("round %d: persist.Open: %v", round, err)
		}
		store, err := Open(Config{
			Shards: 4, Workers: 2, CacheEntries: 32,
			Persist: ps,
			Breaker: BreakerConfig{Failures: 3, Cooldown: 30 * time.Millisecond, Retries: 1, Backoff: time.Millisecond},
		})
		if err != nil {
			t.Fatalf("round %d: Open: %v", round, err)
		}

		// Recovery gate: everything the store recovered must be
		// history-consistent (an older box or a resurrected delete is legal
		// when WAL appends were failing; an unknown box is not).
		recovered, _ := rangeAll(t, store, universe, nil)
		for _, it := range recovered {
			if msg := hist.validate(it, universe); msg != "" {
				t.Fatalf("round %d: recovery served a wrong answer: %s", round, msg)
			}
		}
		// The recovered content becomes the new in-memory truth (it may
		// legally trail what the previous round staged).
		hist.mu.Lock()
		hist.current = map[int64]geom.AABB{}
		for _, it := range recovered {
			hist.current[it.ID] = it.Box
		}
		hist.mu.Unlock()

		// Arm the disk and shard faults, deterministically per round.
		faultinject.SetSeed(seed + int64(round))
		faultinject.Enable(persist.FaultSegmentWrite, faultinject.Spec{ErrRate: 0.1, TornRate: 0.05})
		faultinject.Enable(persist.FaultSegmentSync, faultinject.Spec{ErrRate: 0.1})
		faultinject.Enable(persist.FaultManifestAppend, faultinject.Spec{ErrRate: 0.15, TornRate: 0.05})
		faultinject.Enable(FaultShardVisit, faultinject.Spec{ErrRate: 0.05, LatencyRate: 0.05, Latency: 2 * time.Millisecond})

		var wg sync.WaitGroup
		stop := make(chan struct{})

		// Writer: random upsert/delete batches, staged into history first.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(round)*7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := int(gen.Add(1))
				batch := make([]Update, 0, 24)
				for i := 0; i < 20; i++ {
					id := int64(rng.Intn(ids))
					batch = append(batch, Update{ID: id, Box: genBox(id, g)})
				}
				for i := 0; i < 4; i++ {
					batch = append(batch, Update{ID: int64(rng.Intn(ids)), Delete: true})
				}
				hist.stage(batch)
				store.Apply(batch)
			}
		}()

		// Readers: deadlined range and kNN queries; every returned item is
		// checked against the assignment history.
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(round)*13 + int64(r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2+rng.Intn(10))*time.Millisecond)
					if rng.Intn(2) == 0 {
						x, y := float64(rng.Intn(32)), float64(rng.Intn(16))
						q := geom.NewAABB(geom.V(x-2, y-2, -1), geom.V(x+6, y+6, 1e6))
						rep := store.Query(Request{Op: OpRange, Query: q, Ctx: ctx})
						for _, it := range rep.Items {
							if msg := hist.validate(it, q); msg != "" {
								report(fmt.Sprintf("range (degraded=%v): %s", rep.Degraded, msg))
							}
						}
					} else {
						rep := store.Query(Request{Op: OpKNN, Point: geom.V(float64(rng.Intn(32)), float64(rng.Intn(16)), 4*float64(gen.Load())), K: 8, Ctx: ctx})
						for _, it := range rep.Items {
							if msg := hist.validate(it, universe); msg != "" {
								report(fmt.Sprintf("knn (degraded=%v): %s", rep.Degraded, msg))
							}
						}
					}
					cancel()
				}
			}(r)
		}

		time.Sleep(loadTime)
		close(stop)
		wg.Wait()

		// Quiesce: faults off, one clean batch, exact-set check against the
		// in-memory truth — chaos may have degraded durability, never the
		// served state.
		faultinject.Reset()
		final := []Update{{ID: 0, Box: genBox(0, int(gen.Add(1)))}}
		hist.stage(final)
		store.Apply(final)
		items, _ := rangeAll(t, store, universe, nil)
		want := hist.snapshotCurrent()
		if len(items) != len(want) {
			t.Fatalf("round %d quiesce: store holds %d items, truth holds %d", round, len(items), len(want))
		}
		for _, it := range items {
			if want[it.ID] != it.Box {
				t.Fatalf("round %d quiesce: item %d = %+v, truth %+v", round, it.ID, it.Box, want[it.ID])
			}
		}

		// Alternate clean shutdown (final snapshot lands) with crash-abandon
		// (persistence yanked first, so the final snapshot fails and the next
		// round recovers from the last mid-run snapshot + WAL tail).
		if round%2 == 1 {
			ps.Close()
		}
		store.Close()
		if round%2 == 0 {
			ps.Close()
		}

		wrongMu.Lock()
		bad := append([]string(nil), wrong...)
		wrongMu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("round %d: %d wrong-answer events, first: %s", round, len(bad), bad[0])
		}
	}
}
