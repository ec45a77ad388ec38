package serve

// Zero-copy serving tests: mapped recovery must not rebuild a single shard,
// must answer byte-identically to heap recovery across every query class,
// and must release its mapping exactly when the recovered epoch retires.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
	"spatialsim/internal/rtree"
)

// seedMappedStore writes a durable store with several snapshot generations
// on disk (multi-segment recovery input) and returns its pre-shutdown
// fingerprint.
func seedMappedStore(t *testing.T, dir string, cfg Config) (uint64, []int64) {
	t.Helper()
	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(3000, 21))
	st.Apply([]Update{{ID: 9000, Box: geom.NewAABB(geom.V(3, 3, 3), geom.V(4, 4, 4))}})
	st.Apply([]Update{{ID: 42, Delete: true}})
	epoch, rangeRes, _ := queryFingerprint(t, st)
	ids := make([]int64, len(rangeRes))
	for i, it := range rangeRes {
		ids[i] = it.ID
	}
	st.Close()
	ps.Close()
	return epoch, ids
}

func TestMappedRecoveryNoRebuildAndIdenticalAnswers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}
	epoch, _ := seedMappedStore(t, dir, cfg)

	// Heap-mode reopen: the reference surface.
	heapCfg := cfg
	st, ps := openDurable(t, dir, heapCfg)
	hEpoch, hRange, hKNN := queryFingerprint(t, st)
	hJoin := st.SelfJoin(JoinRequest{Eps: 0.5})
	st.Close()
	ps.Close()
	if hEpoch != epoch {
		t.Fatalf("heap reopen epoch %d, want %d", hEpoch, epoch)
	}

	// Mapped-mode reopen, with metrics so the no-rebuild claim is checked
	// against the build histogram, not just the recovery report.
	reg := obs.NewRegistry()
	mCfg := cfg
	mCfg.Serving = ServingMapped
	mCfg.Metrics = reg
	st2, ps2 := openDurable(t, dir, mCfg)
	defer func() { st2.Close(); ps2.Close() }()

	rec := st2.Recovery()
	if !rec.Recovered || rec.Epoch != epoch || rec.Serving != ServingMapped {
		t.Fatalf("mapped recovery: %+v", rec)
	}
	if rec.ReplayedBatches != 0 {
		t.Fatalf("clean shutdown left %d batches to replay", rec.ReplayedBatches)
	}
	if n := reg.Histogram("spatial_epoch_build_seconds").Count(); n != 0 {
		t.Fatalf("recovery ran %d epoch builds; mapped open must run none", n)
	}
	if persist.MmapSupported() && rtree.OverlaySupported() {
		if rec.ZeroCopyShards == 0 {
			t.Fatal("no zero-copy shards on a platform with mmap support")
		}
		if st2.mapping.Load() == nil {
			t.Fatal("no live mapping after mapped recovery")
		}
	}

	mEpoch, mRange, mKNN := queryFingerprint(t, st2)
	if mEpoch != hEpoch {
		t.Fatalf("mapped epoch %d, heap %d", mEpoch, hEpoch)
	}
	if !sameItems(mRange, hRange) {
		t.Fatalf("range results diverge: mapped %d items, heap %d", len(mRange), len(hRange))
	}
	if !sameItems(mKNN, hKNN) {
		t.Fatalf("kNN results diverge: mapped %d items, heap %d", len(mKNN), len(hKNN))
	}
	mJoin := st2.SelfJoin(JoinRequest{Eps: 0.5})
	if len(mJoin.Pairs) != len(hJoin.Pairs) {
		t.Fatalf("join pairs diverge: mapped %d, heap %d", len(mJoin.Pairs), len(hJoin.Pairs))
	}
	for i := range mJoin.Pairs {
		if mJoin.Pairs[i] != hJoin.Pairs[i] {
			t.Fatalf("join pair %d diverges: %+v vs %+v", i, mJoin.Pairs[i], hJoin.Pairs[i])
		}
	}
}

func TestMappedServingAcceptsUpdatesAndUnmapsOnRetire(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}
	epoch, _ := seedMappedStore(t, dir, cfg)

	mCfg := cfg
	mCfg.Serving = ServingMapped
	st, ps := openDurable(t, dir, mCfg)
	defer func() { st.Close(); ps.Close() }()

	before, _ := st.RangeAll(geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100)), nil)

	// The first Apply seeds staging from the mapped epoch, merges the batch,
	// and publishes a heap epoch; the recovered epoch retires and the
	// mapping must be released.
	box := geom.NewAABB(geom.V(200, 200, 200), geom.V(201, 201, 201))
	next := st.Apply([]Update{{ID: 7777, Box: box}, {ID: 1, Delete: true}})
	if next != epoch+1 {
		t.Fatalf("post-recovery apply published epoch %d, want %d", next, epoch+1)
	}
	after, _ := st.RangeAll(geom.NewAABB(geom.V(0, 0, 0), geom.V(300, 300, 300)), nil)
	if len(after) != len(before) { // +1 insert -1 delete
		t.Fatalf("post-apply epoch holds %d items in range, want %d", len(after), len(before))
	}
	found := false
	for _, it := range after {
		if it.ID == 7777 {
			found = true
		}
		if it.ID == 1 {
			t.Fatal("replayed delete target survived the seed+apply")
		}
	}
	if !found {
		t.Fatal("inserted item missing after mapped-mode apply")
	}
	if st.mapping.Load() != nil {
		t.Fatal("mapping still live after the recovered epoch retired")
	}

	// Restart once more in mapped mode: the post-update state must round-trip
	// through a snapshot written while serving mapped-recovered content.
	st.Close()
	ps.Close()
	st2, ps2 := openDurable(t, dir, mCfg)
	defer func() { st2.Close(); ps2.Close() }()
	if got := st2.Recovery().Epoch; got != next {
		t.Fatalf("second mapped recovery epoch %d, want %d", got, next)
	}
	again, _ := st2.RangeAll(geom.NewAABB(geom.V(0, 0, 0), geom.V(300, 300, 300)), nil)
	if !sameItems(again, after) {
		t.Fatalf("second mapped recovery diverges: %d items, want %d", len(again), len(after))
	}
}

// TestPinnedMappedEpochOutlivesSegmentUnlink pins the live-mapping edge: a
// reader holds the recovered mapped epoch while applies and forced snapshots
// push snapshot retention past it, until segment GC unlinks the file the
// mapping was made from. Unlinking is safe — the pinned epoch must still
// answer identically from the mapping — and the unmap must happen exactly
// once, when the last pin drops.
func TestPinnedMappedEpochOutlivesSegmentUnlink(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}
	seedMappedStore(t, dir, cfg)

	mCfg := cfg
	mCfg.Serving = ServingMapped
	st, ps := openDurable(t, dir, mCfg)
	defer func() { st.Close(); ps.Close() }()
	segPath := filepath.Join(dir, st.Recovery().Segment)
	ms := st.mapping.Load()
	if ms == nil {
		t.Fatal("mapped recovery installed no mapping")
	}

	pinned := st.AcquireEpoch()
	universe := geom.NewAABB(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000))
	answers := func() ([]index.Item, []index.Item) {
		t.Helper()
		var all []index.Item
		// A streamed range bypasses the result cache, so it reads every leaf
		// of every shard from the mapping.
		r := st.QueryPinned(Request{Op: OpRange, Query: universe, Visit: func(it index.Item) bool {
			all = append(all, it)
			return true
		}}, pinned)
		k := st.QueryPinned(Request{Op: OpKNN, Point: geom.V(50, 50, 50), K: 12}, pinned)
		if r.Err != nil || k.Err != nil || r.Degraded || k.Degraded {
			t.Fatalf("pinned query failed: range %v (degraded %v), knn %v (degraded %v)", r.Err, r.Degraded, k.Err, k.Degraded)
		}
		return all, k.Items
	}
	wantRange, wantKNN := answers()

	// RetainSnapshots defaults to 2: two newer snapshots make the recovered
	// segment unreferenced, and rotation unlinks it.
	for i := 0; i < 3; i++ {
		st.Apply([]Update{{ID: int64(20000 + i), Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}})
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("segment GC did not unlink %s (stat err %v)", segPath, err)
	}
	if st.mapping.Load() != ms {
		t.Fatal("mapping released while a reader still pins its epoch")
	}
	gotRange, gotKNN := answers()
	if !sameItems(gotRange, wantRange) || !sameItems(gotKNN, wantKNN) {
		t.Fatalf("pinned epoch diverged after its segment was unlinked: range %d/%d, knn %d/%d items",
			len(gotRange), len(wantRange), len(gotKNN), len(wantKNN))
	}

	st.ReleaseEpoch(pinned)
	if st.mapping.Load() != nil {
		t.Fatal("mapping still live after the last pin dropped")
	}
	// Retirement already closed the segment once (a second close in the
	// retire hook would have panicked), so a probe Close must report it.
	if err := ms.Close(); !errors.Is(err, persist.ErrSegmentClosed) {
		t.Fatalf("retirement did not unmap the segment: probe Close = %v", err)
	}
}

// TestMappedRecoveryWALReplay crashes the store (skipping Close's final
// snapshot) so mapped recovery has a WAL tail to replay on top of the mapped
// epoch — the replay seeds staging from the mapping before applying.
func TestMappedRecoveryWALReplay(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery keeps the background snapshotter off the later epochs, so
	// the two post-snapshot batches exist only in the WAL at "crash" time.
	cfg := Config{Shards: 4, Workers: 2, SnapshotEvery: 100}

	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(1500, 33))
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Stage two more batches, then abandon without Close: they live only in
	// the WAL.
	st.Apply([]Update{{ID: 8000, Box: geom.NewAABB(geom.V(5, 5, 5), geom.V(6, 6, 6))}})
	st.Apply([]Update{{ID: 2, Delete: true}})
	want, wantRange, wantKNN := queryFingerprint(t, st)
	ps.Close() // simulated crash: WAL is on disk, final snapshot is not

	mCfg := cfg
	mCfg.Serving = ServingMapped
	st2, ps2 := openDurable(t, dir, mCfg)
	defer func() { st2.Close(); ps2.Close() }()
	rec := st2.Recovery()
	if rec.ReplayedBatches != 2 {
		t.Fatalf("replayed %d batches, want 2", rec.ReplayedBatches)
	}
	got, gotRange, gotKNN := queryFingerprint(t, st2)
	if got != want {
		t.Fatalf("replayed to epoch %d, want %d", got, want)
	}
	if !sameItems(gotRange, wantRange) || !sameItems(gotKNN, wantKNN) {
		t.Fatal("mapped WAL replay diverges from pre-crash state")
	}
}

// TestPinnedMappedEpochOverSeveralSegmentsOutlivesUnlink is the live-mapping
// edge for carried snapshots: the recovered epoch overlays its own segment
// and the older one its references point into. A reader pins it while
// newer snapshots push both files out of retention and GC unlinks them;
// the pinned epoch must still answer identically, and retirement must
// release every mapping exactly once.
func TestPinnedMappedEpochOverSeveralSegmentsOutlivesUnlink(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}
	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(3000, 23))
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// One moved item dirties one tile: the next snapshot writes that image
	// and references the others in the bootstrap's segment.
	st.Apply([]Update{{ID: 7, Box: geom.NewAABB(geom.V(5, 5, 5), geom.V(6, 6, 6))}})
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ps.Close()
	before, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}

	mCfg := cfg
	mCfg.Serving = ServingMapped
	st, ps = openDurable(t, dir, mCfg)
	defer func() { st.Close(); ps.Close() }()
	ms := st.mapping.Load()
	if ms == nil {
		t.Fatal("mapped recovery installed no mapping")
	}
	if ms.Files() < 2 {
		t.Fatalf("recovered epoch overlays %d segment files, want >= 2", ms.Files())
	}

	pinned := st.AcquireEpoch()
	universe := geom.NewAABB(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000))
	answers := func() ([]index.Item, []index.Item) {
		t.Helper()
		var all []index.Item
		r := st.QueryPinned(Request{Op: OpRange, Query: universe, Visit: func(it index.Item) bool {
			all = append(all, it)
			return true
		}}, pinned)
		k := st.QueryPinned(Request{Op: OpKNN, Point: geom.V(50, 50, 50), K: 12}, pinned)
		if r.Err != nil || k.Err != nil || r.Degraded || k.Degraded {
			t.Fatalf("pinned query failed: range %v, knn %v", r.Err, k.Err)
		}
		return all, k.Items
	}
	wantRange, wantKNN := answers()

	// The first snapshot after a restart is whole, so three more leave no
	// retained snapshot referencing any file written before the restart.
	for i := 0; i < 3; i++ {
		st.Apply([]Update{{ID: int64(30000 + i), Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}})
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range before {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("segment GC did not unlink %s (stat err %v)", path, err)
		}
	}
	gotRange, gotKNN := answers()
	if !sameItems(gotRange, wantRange) || !sameItems(gotKNN, wantKNN) {
		t.Fatalf("pinned epoch diverged after its segments were unlinked: range %d/%d, knn %d/%d items",
			len(gotRange), len(wantRange), len(gotKNN), len(wantKNN))
	}

	st.ReleaseEpoch(pinned)
	if st.mapping.Load() != nil {
		t.Fatal("mapping still live after the last pin dropped")
	}
	if n, _ := ms.Resident(); n != 0 {
		t.Fatalf("retirement left %d bytes of %d files resident", n, ms.Files())
	}
	if err := ms.Close(); !errors.Is(err, persist.ErrSegmentClosed) {
		t.Fatalf("retirement did not close the mappings: probe Close = %v", err)
	}
}

// TestMetricsScrapeRacesMappedRetire scrapes /metrics without pause while
// the first apply retires a recovered mapped epoch — in the first round one
// mapped over several segment files: the mmap gauges read the mapping the
// retire hook is closing, which must be neither a data race (run it under
// -race) nor a fault.
func TestMetricsScrapeRacesMappedRetire(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}
	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(3000, 29))
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Apply([]Update{{ID: 11, Box: geom.NewAABB(geom.V(5, 5, 5), geom.V(6, 6, 6))}})
	st.Close()
	ps.Close()

	for round := 0; round < 4; round++ {
		reg := obs.NewRegistry()
		mCfg := cfg
		mCfg.Serving = ServingMapped
		mCfg.Metrics = reg
		st, ps := openDurable(t, dir, mCfg)
		ms := st.mapping.Load()
		if ms == nil || (round == 0 && ms.Files() < 2) {
			t.Fatalf("round %d: recovered epoch is not mapped over several files: %v", round, ms)
		}

		started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				var out strings.Builder
				reg.WritePrometheus(&out)
				if !strings.Contains(out.String(), "spatial_mmap_segments ") {
					t.Error("/metrics lacks spatial_mmap_segments")
				}
				if i == 0 {
					close(started)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		<-started
		st.Apply([]Update{{ID: int64(12 + round), Box: geom.NewAABB(geom.V(7, 7, 7), geom.V(8, 8, 8))}})
		close(stop)
		<-done
		if st.mapping.Load() != nil {
			t.Fatalf("round %d: mapping still live after the recovered epoch retired", round)
		}
		if err := ms.Close(); !errors.Is(err, persist.ErrSegmentClosed) {
			t.Fatalf("round %d: retirement did not close the mappings: probe Close = %v", round, err)
		}
		st.Close()
		ps.Close()
	}
}
