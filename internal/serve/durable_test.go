package serve

import (
	"errors"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

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
	rItems, rEpoch := rangeAll(t, st, rq, nil)
	kItems, kEpoch := knnAll(t, st, geom.V(50, 50, 50), 12, nil)
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
	if seq, _ := st2.Apply([]Update{{ID: 6000, Box: geom.NewAABB(geom.V(3, 3, 3), geom.V(4, 4, 4))}}); seq != 4 {
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

// awaitPersisted yields until the store's snapshotter has persisted epoch
// seq, failing the test after ten seconds.
func awaitPersisted(t *testing.T, st *Store, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Durability.LastPersistedEpoch < seq {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d not persisted within 10s: %+v", seq, st.Stats().Durability)
		}
		runtime.Gosched()
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
	// saves, so saves carry instead of relocating everything. Each save is
	// awaited before the next apply: the snapshotter saves whatever epoch is
	// current when it runs, and at one core it might otherwise not run until
	// Close.
	saved := st.Stats().Durability.LastPersistedEpoch
	for i := 0; i < 13; i++ {
		batch := make([]Update, 5)
		for j := range batch {
			it := items[r.Intn(len(items))]
			batch[j] = Update{ID: it.ID, Box: it.Box.Translate(geom.V(0.5, 0, 0))}
		}
		if seq, _ := st.Apply(batch); seq-saved >= uint64(cfg.SnapshotEvery) {
			awaitPersisted(t, st, seq)
			saved = seq
		}
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

// TestApplyRefusesInvalidBoxes: a batch with a NaN or infinite corner, or an
// inverted box, is refused whole with ErrBadRequest before anything is
// staged or journaled — the epoch, the item count, the staged-update count,
// the WAL and the served self-join are exactly as before — while deletes
// need no box. Bootstrap refuses the same way.
func TestApplyRefusesInvalidBoxes(t *testing.T) {
	st, ps := openDurable(t, t.TempDir(), Config{Shards: 2, Workers: 2})
	defer ps.Close()
	defer st.Close()
	if _, err := st.Bootstrap(durableItems(400, 5)); err != nil {
		t.Fatal(err)
	}
	join := func() int { return st.SelfJoin(JoinRequest{Eps: 0.5, Workers: 2}).Count }
	state := func() [5]int64 {
		s := st.Stats()
		return [5]int64{int64(s.Epoch), int64(s.Items), s.UpdatesStaged, s.Durability.BatchesLogged, int64(join())}
	}
	before := state()
	if before[4] == 0 {
		t.Fatal("the self-join finds no pair: the check below would be vacuous")
	}
	good := Update{ID: 9000, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}
	inf := math.Inf(1)
	for name, box := range map[string]geom.AABB{
		"nan":      {Min: geom.V(math.NaN(), 0, 0), Max: geom.V(1, 1, 1)},
		"+inf":     {Min: geom.V(0, 0, 0), Max: geom.V(1, inf, 1)},
		"-inf":     {Min: geom.V(0, 0, -inf), Max: geom.V(1, 1, 1)},
		"inverted": {Min: geom.V(0, 2, 0), Max: geom.V(1, 1, 1)},
	} {
		batch := []Update{good, {ID: 3, Delete: true}, {ID: 9001, Box: box}}
		if seq, err := st.Apply(batch); !errors.Is(err, ErrBadRequest) || seq != 0 {
			t.Fatalf("%s: Apply = %d, %v; want 0 and ErrBadRequest", name, seq, err)
		}
		if got := state(); got != before {
			t.Fatalf("%s: a refused batch changed the store: %v, before %v", name, got, before)
		}
	}
	if _, err := st.Apply([]Update{{ID: 3, Delete: true}, good}); err != nil {
		t.Fatalf("a valid batch with a zero-box delete: %v", err)
	}

	fresh := mustNew(t, Config{Shards: 2, Workers: 2})
	items := durableItems(50, 6)
	items[17].Box.Max.Z = math.NaN()
	if _, err := fresh.Bootstrap(items); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Bootstrap with a NaN corner: %v, want ErrBadRequest", err)
	}
	if s := fresh.Stats(); s.Epoch != 0 || s.Items != 0 || s.UpdatesStaged != 0 {
		t.Fatalf("a refused Bootstrap changed the store: epoch %d, %d items, %d staged", s.Epoch, s.Items, s.UpdatesStaged)
	}
}

// storeGoroutines counts the live goroutines a serve function started and,
// of those, the ones running the snapshotter.
func storeGoroutines() (all, snapshotters int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "\ncreated by spatialsim/internal/serve.") {
				all++
				if strings.Contains(g, "serve.(*Store).snapshotLoop") {
					snapshotters++
				}
			}
		}
		return all, snapshotters
	}
}

// TestStoreStartsOnlyTheSnapshotter: an in-memory store runs no goroutine
// of its own, not even after it applied and answered; a durable one runs
// exactly its snapshotter, and Close stops it.
func TestStoreStartsOnlyTheSnapshotter(t *testing.T) {
	base, baseSnap := storeGoroutines()
	settle := func(want int) (all, snap int) {
		all, snap = storeGoroutines()
		for deadline := time.Now().Add(2 * time.Second); all != want && time.Now().Before(deadline); all, snap = storeGoroutines() {
			time.Sleep(time.Millisecond)
		}
		return all, snap
	}
	mem := mustNew(t, Config{Shards: 2, Workers: 2})
	mem.Bootstrap(durableItems(300, 1))
	mem.Apply([]Update{{ID: 1, Delete: true}})
	knnAll(t, mem, geom.V(50, 50, 50), 3, nil)
	if got, _ := settle(base); got != base {
		t.Fatalf("an in-memory store left %d goroutines running", got-base)
	}
	mem.Close()

	st, ps := openDurable(t, t.TempDir(), Config{Shards: 2, Workers: 2})
	defer ps.Close()
	st.Bootstrap(durableItems(300, 1))
	if got, snap := settle(base + 1); got != base+1 || snap != baseSnap+1 {
		t.Fatalf("a durable store runs %d goroutines (%d snapshotters), want only the snapshotter", got-base, snap-baseSnap)
	}
	st.Close()
	if got, _ := settle(base); got != base {
		t.Fatalf("Close left %d goroutines running", got-base)
	}
}
