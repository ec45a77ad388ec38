package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
	"spatialsim/internal/rtree"
)

// tileBatches generates a random update sequence over a tile table cut from
// a uniform bootstrap: small moves of live ids, bursts of new ids packed
// into a hot spot (a tile overflows past the imbalance bound), random
// deletes, and a wipe of three quarters of the space (tiles empty out, and
// the too-few-tiles bound fires). The first batch is the bootstrap.
func tileBatches(seed int64, n, batches int) [][]Update {
	r := rand.New(rand.NewSource(seed))
	live := make(map[int64]geom.AABB)
	var ids []int64
	box := func(c geom.Vec3) geom.AABB { return geom.AABBFromCenter(c, geom.V(0.3, 0.3, 0.3)) }
	next := int64(1)
	var out [][]Update
	boot := make([]Update, n)
	for i := range boot {
		b := box(geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100))
		boot[i] = Update{ID: next, Box: b}
		live[next] = b
		ids = append(ids, next)
		next++
	}
	out = append(out, boot)
	for k := 1; k < batches; k++ {
		var b []Update
		hot := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		nMoves, nHot, nDel := 40+r.Intn(80), r.Intn(3)*150, r.Intn(60)
		for j := 0; j < nMoves; j++ {
			id := ids[r.Intn(len(ids))]
			if _, ok := live[id]; !ok {
				continue
			}
			c := live[id].Center().Add(geom.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5))
			live[id] = box(c)
			b = append(b, Update{ID: id, Box: live[id]})
		}
		for j := 0; j < nHot; j++ {
			c := hot.Add(geom.V(r.Float64()*4, r.Float64()*4, r.Float64()*4))
			live[next] = box(c)
			ids = append(ids, next)
			b = append(b, Update{ID: next, Box: live[next]})
			next++
		}
		for j := 0; j < nDel; j++ {
			id := ids[r.Intn(len(ids))]
			delete(live, id)
			b = append(b, Update{ID: id, Delete: true})
		}
		if k%5 == 3 {
			for _, id := range ids {
				if bx, ok := live[id]; ok && (bx.Center().X < 50 || bx.Center().Y < 50) {
					delete(live, id)
					b = append(b, Update{ID: id, Delete: true})
				}
			}
		}
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b)
	}
	return out
}

// oracleOf replays batches into the map[id]box reference.
func oracleOf(batches [][]Update) map[int64]geom.AABB {
	m := make(map[int64]geom.AABB)
	for _, b := range batches {
		for _, u := range b {
			if u.Delete {
				delete(m, u.ID)
			} else {
				m[u.ID] = u.Box
			}
		}
	}
	return m
}

// layoutOf renders an epoch's full observable layout: every shard's bounds
// and its items in visit order — what every range and kNN reply is a
// function of.
func layoutOf(e *Epoch) string {
	var out []byte
	for i := range e.shards {
		sh := &e.shards[i]
		out = fmt.Appendf(out, "shard %d %v:", i, sh.bounds)
		sh.snap.RangeVisit(sh.bounds, func(it index.Item) bool {
			out = fmt.Appendf(out, " %d@%v", it.ID, it.Box)
			return true
		})
		out = append(out, '\n')
	}
	return string(out)
}

func currentLayout(s *Store) string {
	e := s.AcquireEpoch()
	defer s.ReleaseEpoch(e)
	return layoutOf(e)
}

// TestTileTablePropertyAgainstOracle: random upsert/delete sequences that
// cross the re-cut trigger leave exactly the oracle's items served, and the
// same batches applied one by one, by concurrent Apply callers that share
// one publish, and replayed from the WAL after a crash end in the same tile
// layout — same shards, same bounds, same items in the same visit order.
func TestTileTablePropertyAgainstOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		batches := tileBatches(seed, 1500, 14)
		want := oracleOf(batches)

		// One by one.
		one := mustNew(t, Config{Shards: 1, Workers: 2})
		for _, b := range batches {
			one.Apply(slices.Clone(b))
		}
		if cuts := one.tiles.cuts; cuts < 3 {
			t.Fatalf("seed %d: %d cuts — the sequence never crossed the re-cut trigger", seed, cuts)
		}
		got := make(map[int64]geom.AABB)
		e := one.AcquireEpoch()
		e.RangeVisit(e.Bounds().Expand(1), func(it index.Item) bool {
			if _, dup := got[it.ID]; dup {
				t.Fatalf("seed %d: id %d served twice", seed, it.ID)
			}
			got[it.ID] = it.Box
			return true
		})
		if e.Len() != len(want) {
			t.Fatalf("seed %d: epoch reports %d items, oracle %d", seed, e.Len(), len(want))
		}
		one.ReleaseEpoch(e)
		if len(got) != len(want) {
			t.Fatalf("seed %d: served %d items, oracle %d", seed, len(got), len(want))
		}
		for id, b := range want {
			if got[id] != b {
				t.Fatalf("seed %d: id %d served %v, oracle %v", seed, id, got[id], b)
			}
		}
		ref := currentLayout(one)
		one.Close()

		// Coalesced: the first publish after buildMu is released holds every
		// batch, so it builds every image the final epoch serves and no
		// later publish builds one.
		co := mustNew(t, Config{Shards: 1, Workers: 2})
		var mu sync.Mutex
		firstImages, laterBuilds := map[*rtree.Compact]bool{}, 0
		co.cfg.Build = func(items []index.Item) *rtree.Compact {
			c := rtree.FreezeItems(items, rtree.Config{})
			mu.Lock()
			if co.swaps.Load() == 0 {
				firstImages[c] = true
			} else {
				laterBuilds++
			}
			mu.Unlock()
			return c
		}
		applyCoalesced(t, co, batches)
		e = co.AcquireEpoch()
		for _, sh := range e.shards {
			if !firstImages[sh.snap] {
				t.Fatalf("seed %d: a shard of the final epoch was not built by the first publish", seed)
			}
		}
		if len(e.shards) != len(firstImages) || laterBuilds != 0 {
			t.Fatalf("seed %d: first publish built %d images for %d shards, later publishes %d", seed, len(firstImages), len(e.shards), laterBuilds)
		}
		co.ReleaseEpoch(e)
		if swaps := co.swaps.Load(); swaps != int64(len(batches)) {
			t.Fatalf("seed %d: %d publishes for %d Apply calls", seed, swaps, len(batches))
		}
		if lay := currentLayout(co); lay != ref {
			t.Fatalf("seed %d: coalesced layout differs from one by one", seed)
		}

		// Crash after the last batch, with snapshots taken along the way;
		// recovery replays the WAL tail past the newest snapshot.
		dir := t.TempDir()
		st, ps := openDurable(t, dir, Config{Shards: 1, Workers: 2, SnapshotEvery: 4})
		for i, b := range batches {
			st.Apply(slices.Clone(b))
			if i == len(batches)/2 {
				if _, err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		ps.Close()
		st2, ps2 := openDurable(t, dir, Config{Shards: 1, Workers: 2, SnapshotEvery: 4})
		if st2.Recovery().ReplayedBatches == 0 && st2.Recovery().Epoch != uint64(len(batches)) {
			t.Fatalf("seed %d: recovery %+v", seed, st2.Recovery())
		}
		if lay := currentLayout(st2); lay != ref {
			t.Fatalf("seed %d: layout after crash recovery differs from one by one (recovery %+v)", seed, st2.Recovery())
		}
		// And the recovered table keeps staging like the original: one more
		// batch lands in the same layout on both.
		extra := tileBatches(seed+100, 10, 2)[1]
		st2.Apply(slices.Clone(extra))
		again := mustNew(t, Config{Shards: 1, Workers: 2})
		for _, b := range batches {
			again.Apply(slices.Clone(b))
		}
		again.Apply(slices.Clone(extra))
		if currentLayout(st2) != currentLayout(again) {
			t.Fatalf("seed %d: recovered table staged a batch differently", seed)
		}
		again.Close()
		st2.Close()
		ps2.Close()
	}
}

// applyCoalesced holds buildMu while it starts one Apply caller per batch,
// each once the previous caller's batch is staged, so every batch waits
// behind the lock; then it releases the lock and waits for every caller.
func applyCoalesced(t *testing.T, s *Store, batches [][]Update) {
	t.Helper()
	staged := func() int64 {
		s.stagingMu.Lock()
		defer s.stagingMu.Unlock()
		return s.tiles.updates
	}
	var wg sync.WaitGroup
	s.buildMu.Lock()
	want := staged()
	for _, b := range batches {
		wg.Add(1)
		go func(b []Update) {
			defer wg.Done()
			if _, err := s.Apply(b); err != nil {
				t.Errorf("apply: %v", err)
			}
		}(slices.Clone(b))
		deadline := time.Now().Add(10 * time.Second)
		for want += int64(len(b)); staged() < want; time.Sleep(20 * time.Microsecond) {
			if time.Now().After(deadline) {
				s.buildMu.Unlock()
				t.Fatal("an Apply did not stage its batch while another held the build lock")
			}
		}
	}
	s.buildMu.Unlock()
	wg.Wait()
}

// TestIncrementalPublishCarriesCleanTiles: a batch of localized moves
// rebuilds only the tiles it touched; every other shard of the new epoch is
// the previous epoch's image, by reference.
func TestIncrementalPublishCarriesCleanTiles(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	items := durableItems(6000, 3)
	s.Bootstrap(items)
	prev := s.AcquireEpoch()
	prevSnaps := make(map[index.ReadIndex]bool)
	for i := range prev.shards {
		prevSnaps[prev.shards[i].snap] = true
	}
	s.ReleaseEpoch(prev)
	if len(prevSnaps) != 4*tilesPerShard {
		t.Fatalf("bootstrap cut %d tiles, want %d", len(prevSnaps), 4*tilesPerShard)
	}
	var moves []Update
	for _, it := range items {
		if c := it.Box.Center(); c.X < 15 && c.Y < 15 {
			moves = append(moves, Update{ID: it.ID, Box: it.Box.Translate(geom.V(0.5, 0, 0))})
		}
	}
	s.Apply(moves)
	e := s.AcquireEpoch()
	defer s.ReleaseEpoch(e)
	carried := 0
	for i := range e.shards {
		if prevSnaps[e.shards[i].snap] {
			carried++
		}
	}
	if rebuilt := len(e.shards) - carried; rebuilt == 0 || rebuilt > len(e.shards)/4 {
		t.Fatalf("%d moves rebuilt %d of %d tiles", len(moves), rebuilt, len(e.shards))
	}
}

// TestCostCountersFoldEachTileOnce: K applies with queries between them
// leave the cost counters equal to the sum over the distinct tile images
// ever published — an image carried through several epochs is folded once,
// when the last epoch holding it retires, not once per epoch.
func TestCostCountersFoldEachTileOnce(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, Metrics: obs.NewRegistry()})
	defer s.Close()
	items := durableItems(4000, 8)
	s.Bootstrap(items)
	images := make(map[*rtree.Compact]bool)
	epochs := 0
	record := func() {
		e := s.AcquireEpoch()
		for i := range e.shards {
			images[e.shards[i].snap] = true
		}
		epochs++
		s.ReleaseEpoch(e)
	}
	r := rand.New(rand.NewSource(5))
	query := func() {
		for q := 0; q < 20; q++ {
			c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
			s.Query(Request{Op: OpRange, Query: geom.AABBFromCenter(c, geom.V(6, 6, 6))})
			s.Query(Request{Op: OpKNN, Point: c, K: 5})
		}
	}
	for k := 0; k < 8; k++ {
		record()
		query()
		var moves []Update
		for _, it := range items[k*40 : k*40+40] {
			moves = append(moves, Update{ID: it.ID, Box: it.Box.Translate(geom.V(0.2, 0, 0))})
		}
		s.Apply(moves)
	}
	record()
	query()
	if len(images) >= epochs*2*tilesPerShard {
		t.Fatalf("%d distinct images over %d epochs: nothing was carried", len(images), epochs)
	}
	var want int64
	for img := range images {
		want += img.Counters().Snapshot().ElemIntersectTests
	}
	got, _ := s.costSnapshot()
	if got.ElemIntersectTests != want || want == 0 {
		t.Fatalf("cost counters hold %d element tests, distinct images %d", got.ElemIntersectTests, want)
	}
}

// TestMappedRecoveryFirstPublishRebuildsEveryTile: after -serving mapped
// recovery the first publish rebuilds every tile onto the heap — no image
// overlaying the mapped segment is carried into a later epoch, so the
// mapping can be released when the recovered epoch retires.
func TestMappedRecoveryFirstPublishRebuildsEveryTile(t *testing.T) {
	if !persist.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	cfg := Config{Shards: 2, Workers: 2}
	st, ps := openDurable(t, dir, cfg)
	st.Bootstrap(durableItems(3000, 12))
	st.Close()
	ps.Close()

	cfg.Serving = ServingMapped
	st2, ps2 := openDurable(t, dir, cfg)
	defer func() { st2.Close(); ps2.Close() }()
	if st2.Recovery().ZeroCopyShards == 0 {
		t.Fatalf("mapped recovery served no zero-copy shard: %+v", st2.Recovery())
	}
	st2.Apply([]Update{{ID: 1, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}})
	e := st2.AcquireEpoch()
	defer st2.ReleaseEpoch(e)
	for i := range e.shards {
		if e.shards[i].snap.ZeroCopy() {
			t.Fatalf("shard %d of the first post-recovery epoch overlays the mapped segment", i)
		}
	}
	if st2.mapping.Load() != nil {
		t.Fatal("the mapping outlived the recovered epoch")
	}
}

// TestTileTableBulkLoadCuts: a batch longer than the table's live item
// count is a bulk load — its new ids skip routing and the batch ends with a
// cut, so the layout equals a cut of the same live set staged in one go. A
// shorter batch routes its new ids and keeps the layout.
func TestTileTableBulkLoadCuts(t *testing.T) {
	items := durableItems(3000, 21)
	ups := func(items []index.Item) []Update {
		out := make([]Update, len(items))
		for i, it := range items {
			out[i] = Update{ID: it.ID, Box: it.Box}
		}
		return out
	}
	ids := func(tt *tileTable) [][]int64 {
		var out [][]int64
		for _, tl := range tt.tiles {
			var row []int64
			for _, it := range tl.items {
				row = append(row, it.ID)
			}
			out = append(out, row)
		}
		return out
	}
	tt := newTileTable(1)
	tt.stage(ups(items[:200]))
	tt.stage(ups(items[200:2900]))
	if tt.cuts != 2 {
		t.Fatalf("%d cuts after a seed and a bulk load, want 2", tt.cuts)
	}
	ref := newTileTable(1)
	ref.stage(ups(items[:2900]))
	if !reflect.DeepEqual(ids(tt), ids(ref)) {
		t.Fatal("the layout after a bulk load differs from a cut of the same live set")
	}
	tt.stage(ups(items[2900:]))
	if tt.cuts != 2 || tt.len() != 3000 {
		t.Fatalf("a 100-item batch into 2 900 items: %d cuts, %d items", tt.cuts, tt.len())
	}
}

// TestStatsListsOneShardPerTile: Stats and Epoch.Shards describe the tile
// layout — one shard per non-empty tile, each with the tight MBR of its
// items, a profile counting them and the rtree family — and the live
// latency rows count the queries served.
func TestStatsListsOneShardPerTile(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, Metrics: obs.NewRegistry()})
	defer s.Close()
	s.Bootstrap(durableItems(2500, 4))
	s.Apply([]Update{{ID: 1, Delete: true}, {ID: 9001, Box: geom.NewAABB(geom.V(3, 3, 3), geom.V(4, 4, 4))}})
	s.Query(Request{Op: OpRange, Query: geom.NewAABB(geom.V(0, 0, 0), geom.V(30, 30, 30))})
	s.Query(Request{Op: OpKNN, Point: geom.V(50, 50, 50), K: 3})

	st := s.Stats()
	e := s.AcquireEpoch()
	defer s.ReleaseEpoch(e)
	// 2 shards x 16 tiles = 32, which the STR cut factors as 3 x 3 x 3.
	if e.Name() != "serve-epoch" || e.Pins() < 1 || len(e.Shards()) != len(st.Shards) || len(st.Shards) != 27 {
		t.Fatalf("epoch %s pins %d: %d shards, stats %d, want 27 tiles", e.Name(), e.Pins(), len(e.Shards()), len(st.Shards))
	}
	total := 0
	for i, sh := range e.Shards() {
		var items []index.Item
		sh.snap.RangeVisit(sh.Bounds(), func(it index.Item) bool { items = append(items, it); return true })
		if sh.Bounds() != BoundsOf(items) || len(items) != sh.Len() || st.Shards[i].Items != sh.Len() {
			t.Fatalf("shard %d: bounds %v (items span %v), %d items visited, len %d, stats %d", i, sh.Bounds(), BoundsOf(items), len(items), sh.Len(), st.Shards[i].Items)
		}
		total += sh.Len()
	}
	if total != st.Items || st.Items != 2500 || st.UpdatesStaged != 2502 {
		t.Fatalf("shards hold %d items, stats %d items and %d staged updates", total, st.Items, st.UpdatesStaged)
	}
	classes := map[string]int64{}
	for _, row := range st.QueryLatencies {
		classes[row.Class] = row.Count
	}
	if classes["range"] != 1 || classes["knn"] != 1 {
		t.Fatalf("latency rows %+v, want one range and one knn", st.QueryLatencies)
	}
}
