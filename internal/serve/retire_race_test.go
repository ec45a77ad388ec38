package serve

// Regression tests for the epoch-retire / mapped-recovery races:
//
//   - a forced Snapshot racing the first post-recovery Apply must neither
//     drop a recovered item nor read the mapped segment after its epoch
//     retired and unmapped it (the snapshotter pins the epoch it persists);
//   - the retirement unmap can never run while a mapped view is still being
//     read — proven under a swap storm with concurrent readers, where every
//     reply must be one consistent generation (run with -race).

import (
	"sync"
	"testing"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// TestSeedRaceForcedSnapshotFirstApply races a forced Snapshot()/builder
// cycle against the first Apply after mapped recovery — the window where the
// tile table is still empty and the current epoch's shards alias the
// mmap'd segment. The recovered items must survive into both the live store
// and the snapshot a subsequent reopen recovers from.
func TestSeedRaceForcedSnapshotFirstApply(t *testing.T) {
	const n = 2000
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}

	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(n, 77))
	st.Close()
	ps.Close()

	mCfg := cfg
	mCfg.Serving = ServingMapped
	st, ps = openDurable(t, dir, mCfg)

	extra := geom.NewAABB(geom.V(150, 150, 150), geom.V(151, 151, 151))
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := st.Snapshot(); err != nil {
				t.Errorf("forced snapshot: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// First Apply: seeds staging from the mapped epoch, then retires it.
		st.Apply([]Update{{ID: n + 1, Box: extra}, {ID: 3, Delete: true}})
	}()
	go func() {
		defer wg.Done()
		universe := geom.NewAABB(geom.V(-1e9, -1e9, -1e9), geom.V(1e9, 1e9, 1e9))
		for i := 0; i < 50; i++ {
			rangeAll(t, st, universe, nil)
		}
	}()
	wg.Wait()

	check := func(label string, s *Store) {
		t.Helper()
		universe := geom.NewAABB(geom.V(-1e9, -1e9, -1e9), geom.V(1e9, 1e9, 1e9))
		items, _ := rangeAll(t, s, universe, nil)
		seen := make(map[int64]bool, len(items))
		for _, it := range items {
			seen[it.ID] = true
		}
		for id := int64(1); id <= n; id++ {
			if id == 3 {
				if seen[id] {
					t.Fatalf("%s: deleted item %d resurfaced", label, id)
				}
				continue
			}
			if !seen[id] {
				t.Fatalf("%s: recovered item %d dropped", label, id)
			}
		}
		if !seen[n+1] {
			t.Fatalf("%s: applied item %d missing", label, n+1)
		}
	}
	check("live store", st)

	// Persist whatever epoch is current, then prove a cold reopen recovers
	// the same contents: no lost update made it to disk either.
	if _, err := st.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	st.Close()
	ps.Close()
	st, ps = openDurable(t, dir, cfg)
	defer func() { st.Close(); ps.Close() }()
	check("reopened store", st)
}

// TestMappedSwapStormConcurrentReaders churns generations over a
// mapped-recovered store while readers hammer it: every reply must hold the
// full item count with every box from a single generation (no torn epoch),
// and the mapping must be released exactly once after the recovered epoch
// retires — a double unmap panics via the retire hook, and reading past the
// unmap is caught by -race / a fault.
func TestMappedSwapStormConcurrentReaders(t *testing.T) {
	const (
		n    = 400
		gens = 12
	)
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}

	genBatch := func(g int) []Update {
		batch := make([]Update, n)
		for i := 0; i < n; i++ {
			c := geom.V(float64(i%20), float64(i/20), float64(g))
			batch[i] = Update{ID: int64(i + 1), Box: geom.AABBFromCenter(c, geom.V(0.3, 0.3, 0.3))}
		}
		return batch
	}

	st, ps := openDurable(t, dir, cfg)
	items := make([]index.Item, n)
	for i, u := range genBatch(0) {
		items[i] = index.Item{ID: u.ID, Box: u.Box}
	}
	st.Bootstrap(items)
	st.Close()
	ps.Close()

	mCfg := cfg
	mCfg.Serving = ServingMapped
	st, ps = openDurable(t, dir, mCfg)
	defer func() { st.Close(); ps.Close() }()

	universe := geom.NewAABB(geom.V(-1e9, -1e9, -1e9), geom.V(1e9, 1e9, 1e9))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []index.Item
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf, _ = rangeAll(t, st, universe, buf[:0])
				if len(buf) != n {
					t.Errorf("torn reply: %d items, want %d", len(buf), n)
					return
				}
				gen := buf[0].Box.Min.Z
				for _, it := range buf {
					if it.Box.Min.Z != gen {
						t.Errorf("torn reply: generations %v and %v in one epoch", gen, it.Box.Min.Z)
						return
					}
				}
				knnAll(t, st, geom.V(10, 10, gen), 8, nil)
			}
		}()
	}

	// The storm: every generation rewrites all items; the first Apply also
	// seeds staging from the mapped epoch and retires it (unmap).
	for g := 1; g <= gens; g++ {
		st.Apply(genBatch(g))
	}
	// Give readers a beat on the final generation, then stop.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if st.mapping.Load() != nil {
		t.Fatal("mapping still live after the recovered epoch was churned out")
	}
	got, _ := rangeAll(t, st, universe, nil)
	if len(got) != n {
		t.Fatalf("post-storm store holds %d items, want %d", len(got), n)
	}
	for _, it := range got {
		if it.Box.Min.Z != float64(gens)-0.3 {
			t.Fatalf("post-storm generation %v, want %v", it.Box.Min.Z, float64(gens)-0.3)
		}
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		queued int64
		slots  int
		avg    time.Duration
		want   time.Duration
	}{
		{0, 8, 0, time.Second},                            // idle, no history: floor
		{0, 8, 10 * time.Millisecond, time.Second},        // sub-second drain: floor
		{100, 4, 200 * time.Millisecond, 6 * time.Second}, // ceil(101*0.2/4)=ceil(5.05)
		{1000, 1, time.Second, 60 * time.Second},          // clamp at 60s
		{-5, 0, time.Second, time.Second},                 // nonsense inputs sanitized
	}
	for _, c := range cases {
		if got := RetryAfterEstimate(c.queued, c.slots, c.avg); got != c.want {
			t.Errorf("RetryAfterEstimate(%d, %d, %v) = %v, want %v", c.queued, c.slots, c.avg, got, c.want)
		}
	}
}

// TestRetryAfterHintTracksQueue pins the hint to live admission state: a
// saturated store with a deep queue and a slow observed service time must
// advertise a drain estimate above the floor.
func TestRetryAfterHintTracksQueue(t *testing.T) {
	st, err := New(Config{Shards: 2, MaxInFlight: 1, MaxQueued: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.RetryAfterHint(); got != time.Second {
		t.Fatalf("idle hint = %v, want 1s", got)
	}
	// Simulate observed latency and queue depth.
	st.observeServiceTime(2 * time.Second)
	st.queued.Store(10)
	want := RetryAfterEstimate(10, 1, time.Duration(st.avgQueryNs.Load()))
	if got := st.RetryAfterHint(); got != want || got <= time.Second {
		t.Fatalf("loaded hint = %v, want %v (> 1s)", got, want)
	}
}
