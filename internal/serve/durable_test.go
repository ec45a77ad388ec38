package serve

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
)

func durableItems(n int, seed int64) []index.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.AABBFromCenter(c, geom.V(0.4, 0.4, 0.4))}
	}
	return items
}

func openDurable(t *testing.T, dir string, cfg Config) (*Store, *persist.Store) {
	t.Helper()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persist = ps
	st, err := Open(cfg)
	if err != nil {
		ps.Close()
		t.Fatal(err)
	}
	return st, ps
}

// queryFingerprint captures the observable read surface: epoch sequence and
// exact result slices for a range query and a kNN query.
func queryFingerprint(t *testing.T, st *Store) (uint64, []index.Item, []index.Item) {
	t.Helper()
	rq := geom.NewAABB(geom.V(20, 20, 20), geom.V(60, 60, 60))
	rItems, rEpoch := st.RangeAll(rq, nil)
	kItems, kEpoch := st.KNN(geom.V(50, 50, 50), 12, nil)
	if rEpoch != kEpoch {
		t.Fatalf("epoch moved between queries: %d vs %d", rEpoch, kEpoch)
	}
	return rEpoch, rItems, kItems
}

func sameItems(a, b []index.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDurableCleanRestartIsIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, Workers: 2}

	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(2000, 9))
	st.Apply([]Update{{ID: 5000, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}})
	st.Apply([]Update{{ID: 17, Delete: true}})
	epoch, rangeRes, knnRes := queryFingerprint(t, st)
	if epoch != 3 {
		t.Fatalf("epoch before restart = %d, want 3", epoch)
	}
	st.Close()
	ps.Close()

	st2, ps2 := openDurable(t, dir, cfg)
	defer func() { st2.Close(); ps2.Close() }()
	rec := st2.Recovery()
	if !rec.Recovered || rec.Epoch != 3 || rec.ReplayedBatches != 0 {
		t.Fatalf("recovery info after clean shutdown: %+v", rec)
	}
	epoch2, rangeRes2, knnRes2 := queryFingerprint(t, st2)
	if epoch2 != epoch {
		t.Fatalf("epoch after restart = %d, want %d", epoch2, epoch)
	}
	if !sameItems(rangeRes, rangeRes2) {
		t.Fatalf("range results differ after restart: %d vs %d items", len(rangeRes), len(rangeRes2))
	}
	if !sameItems(knnRes, knnRes2) {
		t.Fatalf("knn results differ after restart")
	}
	// And the restarted store keeps working: a new batch lands in epoch 4.
	if seq := st2.Apply([]Update{{ID: 6000, Box: geom.NewAABB(geom.V(3, 3, 3), geom.V(4, 4, 4))}}); seq != 4 {
		t.Fatalf("apply after restart produced epoch %d, want 4", seq)
	}
}

func TestDurableWALReplayRestoresEpochSequence(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery larger than the epoch count: everything past bootstrap
	// lives only in the WAL, like a crash before the snapshotter caught up.
	cfg := Config{Shards: 3, Workers: 2, SnapshotEvery: 100}

	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(800, 4))
	if _, err := st.Snapshot(); err != nil { // force: epoch 1 is on disk
		t.Fatal(err)
	}
	st.Apply([]Update{{ID: 9001, Box: geom.NewAABB(geom.V(5, 5, 5), geom.V(6, 6, 6))}})
	st.Apply([]Update{{ID: 9002, Box: geom.NewAABB(geom.V(7, 7, 7), geom.V(8, 8, 8))}})
	st.Apply([]Update{{ID: 3, Delete: true}})
	epoch, rangeRes, knnRes := queryFingerprint(t, st)
	if epoch != 4 {
		t.Fatalf("epoch before crash = %d, want 4", epoch)
	}
	// Simulated crash: no Close, no final snapshot. The WAL is synced per
	// batch, so a fresh store over the same dir must replay to epoch 4.
	ps.Close()

	st2, ps2 := openDurable(t, dir, cfg)
	defer func() { st2.Close(); ps2.Close() }()
	rec := st2.Recovery()
	if rec.Epoch != 1 || rec.ReplayedBatches != 3 {
		t.Fatalf("recovery info after crash: %+v", rec)
	}
	epoch2, rangeRes2, knnRes2 := queryFingerprint(t, st2)
	if epoch2 != epoch {
		t.Fatalf("epoch after WAL replay = %d, want %d", epoch2, epoch)
	}
	if !sameItems(rangeRes, rangeRes2) || !sameItems(knnRes, knnRes2) {
		t.Fatalf("results differ after WAL replay")
	}
}

func TestDurableStatsSurface(t *testing.T) {
	dir := t.TempDir()
	st, ps := openDurable(t, dir, Config{Shards: 2})
	defer ps.Close()
	st.Bootstrap(durableItems(200, 2))
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Durability == nil {
		t.Fatal("durable store reports no durability stats")
	}
	if stats.Durability.LastPersistedEpoch != 1 || stats.Durability.BatchesLogged != 1 {
		t.Fatalf("durability stats: %+v", stats.Durability)
	}
	st.Close()

	// In-memory stores keep a nil durability slice.
	mem := mustNew(t, Config{})
	defer mem.Close()
	if mem.Stats().Durability != nil {
		t.Fatal("in-memory store reports durability stats")
	}
}

// TestSkippedSnapshotsCarryOnlyPersistedImages snapshots every fourth
// epoch: tiles rebuilt in the skipped epochs were never persisted, so a
// save may carry only images an earlier successful save wrote. Restarting
// (heap and mapped) must give back the last saved epoch exactly, and the
// registry must show images carried between the saves.
func TestSkippedSnapshotsCarryOnlyPersistedImages(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := Config{Shards: 4, Workers: 2, SnapshotEvery: 4, Metrics: reg}
	st, ps := openDurable(t, dir, cfg)
	items := durableItems(4000, 31)
	st.Bootstrap(items)
	r := rand.New(rand.NewSource(5))
	// Five moved items per epoch leave most of the 64 tiles clean between
	// saves, so saves carry instead of relocating everything.
	for i := 0; i < 13; i++ {
		batch := make([]Update, 5)
		for j := range batch {
			it := items[r.Intn(len(items))]
			batch[j] = Update{ID: it.ID, Box: it.Box.Translate(geom.V(0.5, 0, 0))}
		}
		st.Apply(batch)
	}
	epoch, wantRange, wantKNN := queryFingerprint(t, st)
	st.Close() // the final snapshot is forced, whatever the cadence
	ps.Close()
	var out strings.Builder
	reg.WritePrometheus(&out)
	if !regexp.MustCompile(`(?m)^spatial_snapshot_images_carried_total [1-9]`).MatchString(out.String()) {
		t.Fatalf("no image carried between snapshots:\n%s", out.String())
	}

	for _, serving := range []ServingMode{ServingHeap, ServingMapped} {
		c := Config{Shards: 4, Workers: 2, Serving: serving}
		st2, ps2 := openDurable(t, dir, c)
		got, gotRange, gotKNN := queryFingerprint(t, st2)
		rec := st2.Recovery()
		st2.Close()
		ps2.Close()
		if got != epoch || rec.ReplayedBatches != 0 {
			t.Fatalf("%v: recovered epoch %d with %d batches replayed, want %d and none", serving, got, rec.ReplayedBatches, epoch)
		}
		if !sameItems(gotRange, wantRange) || !sameItems(gotKNN, wantKNN) {
			t.Fatalf("%v: recovered epoch %d answers differently", serving, epoch)
		}
	}
}
