package persist

// Crash-recovery torture: every write the store issues — segment pages,
// manifest appends, rotation temp files, syncs — goes through a byte budget
// that runs out at a randomized offset, simulating a crash mid-write. After
// each simulated crash a clean store recovers the directory and the test
// asserts the only two legal outcomes: the previous complete epoch (with
// exactly its contents), or the new epoch (with exactly its contents), or —
// when nothing complete survives — a clean corruption error. Torn data must
// never be served.

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
)

// failingFile wraps a real file with a shared byte budget; once the budget
// is spent, writes (and syncs) fail with errInjectedCrash. Partial writes at
// the boundary model a torn page.
type failingFile struct {
	f      *os.File
	budget *atomic.Int64
}

var errInjectedCrash = fmt.Errorf("injected crash: write budget exhausted")

func (ff *failingFile) ReadAt(p []byte, off int64) (int, error) { return ff.f.ReadAt(p, off) }
func (ff *failingFile) Close() error                            { return ff.f.Close() }

func (ff *failingFile) WriteAt(p []byte, off int64) (int, error) {
	left := ff.budget.Add(-int64(len(p))) + int64(len(p))
	if left <= 0 {
		return 0, errInjectedCrash
	}
	if left < int64(len(p)) {
		n, _ := ff.f.WriteAt(p[:left], off) // torn write
		return n, errInjectedCrash
	}
	return ff.f.WriteAt(p, off)
}

func (ff *failingFile) Sync() error {
	if ff.budget.Load() <= 0 {
		return errInjectedCrash
	}
	return ff.f.Sync()
}

// failingStore opens a persist.Store whose every file operation spends the
// shared budget.
func failingStore(t *testing.T, dir string, budget *atomic.Int64) *Store {
	t.Helper()
	s := &Store{
		dir:  dir,
		opts: Options{}.withDefaults(),
		createFile: func(path string) (BackingFile, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return nil, err
			}
			return &failingFile{f: f, budget: budget}, nil
		},
		openFile: func(path string) (BackingFile, int64, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, 0, err
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, 0, err
			}
			return &failingFile{f: f, budget: budget}, st.Size(), nil
		},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.reopenManifest(); err != nil {
		t.Fatal(err)
	}
	return s
}

func tortureShards(items []index.Item) []ShardRecord {
	return []ShardRecord{{Bounds: boundsOf(items), RTree: rtree.FreezeItems(items, rtree.Config{})}}
}

// itemSet materializes a recovered epoch's full content as an id->box map.
func itemSet(t *testing.T, shards []ShardRecord) map[int64]geom.AABB {
	t.Helper()
	out := make(map[int64]geom.AABB)
	for _, sr := range shards {
		sr.RTree.RangeVisit(sr.RTree.Bounds().Expand(1), func(it index.Item) bool {
			out[it.ID] = it.Box
			return true
		})
	}
	return out
}

func wantSet(items []index.Item) map[int64]geom.AABB {
	out := make(map[int64]geom.AABB, len(items))
	for _, it := range items {
		out[it.ID] = it.Box
	}
	return out
}

func sameSet(a, b map[int64]geom.AABB) bool {
	if len(a) != len(b) {
		return false
	}
	for id, box := range a {
		if b[id] != box {
			return false
		}
	}
	return true
}

// tortureStep is one store call of a crash sequence: a WAL batch when
// batch is set, otherwise a save of epoch with shards (whose full content is
// want).
type tortureStep struct {
	batch  []Update
	epoch  uint64
	shards []ShardRecord
	want   map[int64]geom.AABB
}

// tortureRun is what one crash trial acknowledged before its budget ran out.
type tortureRun struct {
	acked    uint64   // last epoch whose SaveEpoch returned nil (0: none)
	inflight uint64   // epoch whose SaveEpoch failed (0: none)
	batches  []uint64 // sequence numbers of acknowledged batches
	cost     int64    // bytes the run wrote
}

// runTorture replays steps on one failing store in dir: the first clean
// steps with an unlimited budget, the rest under budget bytes. It stops at
// the first failed call, as a crashed process would.
func runTorture(t *testing.T, dir string, steps []tortureStep, clean int, budget int64) tortureRun {
	t.Helper()
	const unlimited = int64(1) << 40
	b := &atomic.Int64{}
	b.Store(unlimited)
	s := failingStore(t, dir, b)
	defer s.Close()
	var run tortureRun
	var seq uint64
	spent := int64(0)
	for i, st := range steps {
		if i == clean {
			spent = unlimited - b.Load()
			b.Store(budget)
		}
		if st.batch != nil {
			n, err := s.LogBatch(st.batch)
			if err != nil {
				break
			}
			seq = n
			run.batches = append(run.batches, n)
			continue
		}
		if err := s.SaveEpoch(st.epoch, seq, st.shards); err != nil {
			run.inflight = st.epoch
			break
		}
		run.acked = st.epoch
	}
	if clean >= len(steps) {
		spent = unlimited - b.Load()
	} else {
		spent += budget - b.Load()
	}
	run.cost = spent
	return run
}

// checkTortureRecovery recovers dir in both modes and asserts the only
// legal outcomes of run: the last acknowledged epoch or the one in flight
// when the budget ran out, each with exactly its content, and every
// acknowledged batch beyond it still pending. It returns the epoch.
func checkTortureRecovery(t *testing.T, dir string, steps []tortureStep, run tortureRun) uint64 {
	t.Helper()
	want := map[uint64]map[int64]geom.AABB{0: {}}
	for _, st := range steps {
		if st.batch == nil {
			want[st.epoch] = st.want
		}
	}
	var got uint64
	for _, mapped := range []bool{false, true} {
		clean, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		rec, err := clean.Recover(RecoverOptions{Mapped: mapped})
		clean.Close()
		if err != nil {
			t.Fatalf("mapped=%v, run %+v: recovery failed: %v", mapped, run, err)
		}
		if rec.EpochSeq != run.acked && (run.inflight == 0 || rec.EpochSeq != run.inflight) {
			t.Fatalf("mapped=%v: recovered epoch %d; acknowledged %d, in flight %d",
				mapped, rec.EpochSeq, run.acked, run.inflight)
		}
		if !sameSet(itemSet(t, rec.Shards), want[rec.EpochSeq]) {
			t.Fatalf("mapped=%v: epoch %d content differs after crash", mapped, rec.EpochSeq)
		}
		pending := make(map[uint64]bool, len(rec.Pending))
		for _, br := range rec.Pending {
			pending[br.Seq] = true
		}
		for _, seq := range run.batches {
			if seq > rec.BatchSeq && !pending[seq] {
				t.Fatalf("mapped=%v: acknowledged batch %d lost from the WAL tail of epoch %d", mapped, seq, rec.EpochSeq)
			}
		}
		if rec.Mapping != nil {
			rec.Mapping.Close()
		}
		got = rec.EpochSeq
	}
	return got
}

// sweepCrashes runs steps under budgets spread evenly over the bytes the
// unclean steps write, plus random ones and one that never runs out, and
// checks recovery after each. It returns how often each epoch was
// recovered.
func sweepCrashes(t *testing.T, rng *rand.Rand, steps []tortureStep, clean, trials int) map[uint64]int {
	t.Helper()
	full := runTorture(t, t.TempDir(), steps, clean, 1<<40)
	if full.inflight != 0 {
		t.Fatalf("failure-free run failed at epoch %d", full.inflight)
	}
	full.cost -= runTorture(t, t.TempDir(), steps[:clean], clean, 1<<40).cost
	seen := make(map[uint64]int)
	for trial := 0; trial <= trials; trial++ {
		budget := 1 + full.cost*int64(trial)/int64(trials)
		if trial%4 == 3 {
			budget = 1 + rng.Int63n(full.cost+256)
		}
		dir := t.TempDir()
		run := runTorture(t, dir, steps, clean, budget)
		seen[checkTortureRecovery(t, dir, steps, run)]++
	}
	return seen
}

// tortureTiles is a toy epoch of independently frozen tile images, the
// shape the serving layer's tile table hands SaveEpoch: replacing a tile
// freezes a new image, every other tile keeps its *rtree.Compact, so a
// save carries it.
type tortureTiles struct {
	per    int
	items  [][]index.Item
	shards []ShardRecord
}

func newTortureTiles(n, perTile int) *tortureTiles {
	tl := &tortureTiles{per: perTile, items: make([][]index.Item, n), shards: make([]ShardRecord, n)}
	for i := range tl.items {
		tl.replace(i, int64(i+1))
	}
	return tl
}

// replace gives tile i the same ids at new positions (seed picks them) and
// a new image.
func (tl *tortureTiles) replace(i int, seed int64) {
	items := testItems(tl.per, seed*7919+int64(i))
	for j := range items {
		items[j].ID = int64(i*100000 + j + 1)
	}
	tl.items[i] = items
	tl.shards[i] = ShardRecord{Bounds: boundsOf(items), RTree: rtree.FreezeItems(items, rtree.Config{})}
}

// save returns a save step of the tiles' current state as epoch.
func (tl *tortureTiles) save(epoch uint64) tortureStep {
	var all []index.Item
	for _, items := range tl.items {
		all = append(all, items...)
	}
	return tortureStep{epoch: epoch, shards: append([]ShardRecord(nil), tl.shards...), want: wantSet(all)}
}

// carriedSteps is a save sequence whose later saves carry most images of
// earlier ones: 8 tiles, then saves that dirty one or two tiles each, the
// third leaving segment 1 under two thirds live so its images are
// relocated, with a WAL batch between saves.
func carriedSteps() []tortureStep {
	tl := newTortureTiles(8, 40)
	batch := func(id int64) tortureStep {
		return tortureStep{batch: []Update{{ID: id, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}}}
	}
	steps := []tortureStep{tl.save(1), batch(1)}
	for epoch, dirty := range [][]int{2: {0}, 3: {1, 2}, 4: {3, 4}, 5: {0, 1}} {
		if dirty == nil {
			continue
		}
		for _, i := range dirty {
			tl.replace(i, int64(epoch))
		}
		steps = append(steps, tl.save(uint64(epoch)), batch(int64(epoch)))
	}
	return steps
}

func TestTortureRandomizedCrashOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 40
	if testing.Short() {
		trials = 12
	}

	// Whole saves: epoch 1 lands cleanly, then a batch and epoch 2 crash at
	// offsets spread over everything they write — segment pages, manifest
	// append, rotation.
	t.Run("whole", func(t *testing.T) {
		items1, items2 := testItems(300, 1), testItems(330, 2)
		steps := []tortureStep{
			{epoch: 1, shards: tortureShards(items1), want: wantSet(items1)},
			{batch: []Update{{ID: 999, Box: items2[0].Box}}},
			{epoch: 2, shards: tortureShards(items2), want: wantSet(items2)},
		}
		seen := sweepCrashes(t, rng, steps, 1, trials)
		if seen[1] == 0 || seen[2] == 0 {
			t.Fatalf("budget range failed to exercise both outcomes: %v", seen)
		}
	})

	// Carried saves: the crash lands anywhere in a sequence whose later
	// segments hold only dirty tiles and reference the rest, one of them
	// relocating the live images of a sparse segment. Every epoch must
	// recover exactly, which needs every segment a retained snapshot
	// references to survive segment GC.
	t.Run("carried", func(t *testing.T) {
		steps := carriedSteps()
		probe := failingStore(t, t.TempDir(), func() *atomic.Int64 { b := &atomic.Int64{}; b.Store(1 << 40); return b }())
		var seq uint64
		for _, st := range steps {
			if st.batch != nil {
				seq, _ = probe.LogBatch(st.batch)
				continue
			}
			if err := probe.SaveEpoch(st.epoch, seq, st.shards); err != nil {
				t.Fatal(err)
			}
		}
		probe.Close()
		if probe.images.carried == 0 || probe.images.relocated == 0 {
			t.Fatalf("sequence carried %d and relocated %d images; it must do both",
				probe.images.carried, probe.images.relocated)
		}
		seen := sweepCrashes(t, rng, steps, 0, 4*trials)
		for _, st := range steps {
			if st.batch == nil && seen[st.epoch] == 0 {
				t.Fatalf("no crash offset recovered epoch %d: %v", st.epoch, seen)
			}
		}
	})
}

// syncFailFile passes writes through but fails Sync while the flag is up —
// the transient-fsync-failure shape (disk full, I/O error) rather than a
// crash.
type syncFailFile struct {
	f    *os.File
	fail *atomic.Bool
}

func (sf *syncFailFile) ReadAt(p []byte, off int64) (int, error)  { return sf.f.ReadAt(p, off) }
func (sf *syncFailFile) WriteAt(p []byte, off int64) (int, error) { return sf.f.WriteAt(p, off) }
func (sf *syncFailFile) Close() error                             { return sf.f.Close() }
func (sf *syncFailFile) Sync() error {
	if sf.fail.Load() {
		return fmt.Errorf("injected fsync failure")
	}
	return sf.f.Sync()
}

// TestWALSyncFailureDoesNotShadowLaterBatch: a batch whose post-append fsync
// fails must not leave its record in the manifest, where it would share a
// sequence number with the next (acknowledged) batch and shadow it during
// replay.
func TestWALSyncFailureDoesNotShadowLaterBatch(t *testing.T) {
	dir := t.TempDir()
	var failSync atomic.Bool
	s := &Store{
		dir:        dir,
		opts:       Options{}.withDefaults(),
		createFile: osCreate,
		openFile: func(path string) (BackingFile, int64, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, 0, err
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, 0, err
			}
			return &syncFailFile{f: f, fail: &failSync}, st.Size(), nil
		},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.reopenManifest(); err != nil {
		t.Fatal(err)
	}

	failSync.Store(true)
	if _, err := s.LogBatch([]Update{{ID: 111}}); err == nil {
		t.Fatal("LogBatch succeeded under failing fsync")
	}
	failSync.Store(false)
	seq, err := s.LogBatch([]Update{{ID: 222}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	clean, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	rec, err := clean.Recover(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Seq != seq {
		t.Fatalf("pending after fsync failure: %+v", rec.Pending)
	}
	if got := rec.Pending[0].Updates[0].ID; got != 222 {
		t.Fatalf("replayed batch is the failed one (id %d), acknowledged batch shadowed", got)
	}
}

// TestTortureAllSnapshotsCorrupt asserts the clean-corruption contract: when
// no complete epoch survives, recovery reports it instead of serving
// anything.
func TestTortureAllSnapshotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveEpoch(1, 0, tortureShards(testItems(100, 3))); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Truncate the only segment mid-page: size check and CRC both break.
	seg := dir + "/" + segmentName(1)
	if err := os.Truncate(seg, 1000); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Recover(RecoverOptions{}); err == nil {
		t.Fatal("recovery served a torn-only directory")
	}
}
