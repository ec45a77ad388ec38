package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

func testItems(n int, seed int64) []index.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		half := geom.V(0.2+r.Float64(), 0.2+r.Float64(), 0.2+r.Float64())
		items[i] = index.Item{ID: int64(i + 1), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

func boundsOf(items []index.Item) geom.AABB {
	b := geom.EmptyAABB()
	for _, it := range items {
		b = b.Union(it.Box)
	}
	return b
}

func testShards(t *testing.T, n int, seed int64) []ShardRecord {
	t.Helper()
	items := testItems(n, seed)
	half := len(items) / 2
	return []ShardRecord{
		{Bounds: boundsOf(items[:half]), RTree: rtree.FreezeItems(items[:half], rtree.Config{})},
		{Bounds: boundsOf(items[half:]), Items: items[half:]},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	shards := testShards(t, 500, 11)
	image := EncodeSegment(7, 42, shards, 4096)
	if len(image)%4096 != 0 {
		t.Fatalf("image %d bytes not page aligned", len(image))
	}
	info, dec, err := DecodeSegment(image, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if info.EpochSeq != 7 || info.BatchSeq != 42 || info.ShardCount != 2 {
		t.Fatalf("info = %+v", info)
	}
	if dec[0].RTree == nil || dec[1].Items == nil {
		t.Fatalf("shard kinds lost: %+v", dec)
	}
	if dec[0].RTree.Len() != shards[0].RTree.Len() {
		t.Fatalf("rtree shard len %d, want %d", dec[0].RTree.Len(), shards[0].RTree.Len())
	}
	if len(dec[1].Items) != len(shards[1].Items) {
		t.Fatalf("items shard len %d, want %d", len(dec[1].Items), len(shards[1].Items))
	}
	for i, it := range shards[1].Items {
		if dec[1].Items[i] != it {
			t.Fatalf("item %d: %+v vs %+v", i, dec[1].Items[i], it)
		}
	}
	// Corruption of any payload byte must be detected by the payload CRC.
	// (Header and padding bytes are covered by the whole-image CRC the
	// manifest snapshot record pins — exercised in the rotation test.)
	for _, off := range []int{4096, 4096 + info.PayloadLen - 1, 4096 + info.PayloadLen/2} {
		bad := append([]byte(nil), image...)
		bad[off] ^= 0x40
		if _, _, err := DecodeSegment(bad, 4, true); err == nil {
			t.Errorf("flip at %d: decode accepted corrupt segment", off)
		}
	}
}

func TestManifestRoundTripAndTornTail(t *testing.T) {
	var buf []byte
	sn := SnapshotRecord{EpochSeq: 3, BatchSeq: 9, SegSize: 8192, SegCRC: 0xDEAD, Name: "epoch-3.seg"}
	b1 := BatchRecord{Seq: 10, Updates: []Update{{ID: 1, Box: geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1))}}}
	b2 := BatchRecord{Seq: 11, Updates: []Update{{ID: 1, Delete: true}}}
	buf = encodeSnapshotRecord(buf, sn)
	buf = encodeBatchRecord(buf, b1)
	whole := len(buf)
	buf = encodeBatchRecord(buf, b2)

	snaps, batches, torn := DecodeManifest(buf)
	if torn || len(snaps) != 1 || len(batches) != 2 {
		t.Fatalf("full replay: snaps=%d batches=%d torn=%v", len(snaps), len(batches), torn)
	}
	if snaps[0] != sn {
		t.Fatalf("snapshot record %+v, want %+v", snaps[0], sn)
	}
	if batches[1].Seq != 11 || !batches[1].Updates[0].Delete {
		t.Fatalf("batch record %+v", batches[1])
	}

	// A torn tail (crash mid-append) cuts at the last whole record.
	for cut := whole + 1; cut < len(buf); cut += 7 {
		snaps, batches, torn = DecodeManifest(buf[:cut])
		if !torn || len(snaps) != 1 || len(batches) != 1 {
			t.Fatalf("cut=%d: snaps=%d batches=%d torn=%v", cut, len(snaps), len(batches), torn)
		}
	}
}

func TestStoreSaveRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// WAL-only recovery before any snapshot.
	if _, err := s.LogBatch([]Update{{ID: 5, Box: geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1))}}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.EpochSeq != 0 || len(rec.Pending) != 1 || rec.Pending[0].Seq != 1 {
		t.Fatalf("WAL-only recovery: %+v", rec)
	}

	// Snapshot, then a tail batch.
	shards := testShards(t, 400, 5)
	if err := s.SaveEpoch(1, 1, shards); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LogBatch([]Update{{ID: 9, Delete: true}}); err != nil {
		t.Fatal(err)
	}
	rec, err = s.Recover(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.EpochSeq != 1 || rec.BatchSeq != 1 {
		t.Fatalf("recovered epoch %d covering %d", rec.EpochSeq, rec.BatchSeq)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Seq != 2 {
		t.Fatalf("pending tail: %+v", rec.Pending)
	}
	if rec.Items() != 400 {
		t.Fatalf("recovered %d items, want 400", rec.Items())
	}

	// A second store on the same dir (the restart) sees the same state and
	// continues the batch sequence.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seq, err := s2.LogBatch([]Update{{ID: 10, Delete: true}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("batch seq after reopen = %d, want 3", seq)
	}
}

func TestStoreRotationRetainsAndGCs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for epoch := uint64(1); epoch <= 5; epoch++ {
		if _, err := s.LogBatch([]Update{{ID: int64(epoch)}}); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveEpoch(epoch, epoch, testShards(t, 50, int64(epoch))); err != nil {
			t.Fatal(err)
		}
	}
	snaps := s.Snapshots()
	if len(snaps) != 2 || snaps[0].EpochSeq != 4 || snaps[1].EpochSeq != 5 {
		t.Fatalf("retained: %+v", snaps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) != 2 {
		t.Fatalf("segments on disk after GC: %v", segs)
	}
	// Corrupting the newest falls back to the previous; corrupting both is a
	// clean error.
	newest := filepath.Join(dir, segmentName(5))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.EpochSeq != 4 || rec.SkippedCorrupt != 1 {
		t.Fatalf("fallback recovery: epoch %d skipped %d", rec.EpochSeq, rec.SkippedCorrupt)
	}
	// Pending must bridge from epoch 4's coverage to the tail.
	if len(rec.Pending) != 1 || rec.Pending[0].Seq != 5 {
		t.Fatalf("fallback pending: %+v", rec.Pending)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(4))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(RecoverOptions{}); err == nil {
		t.Fatal("recovery succeeded with every snapshot corrupt")
	}
}

func TestPagedCompactMatchesInMemory(t *testing.T) {
	items := testItems(3000, 77)
	c := rtree.FreezeItems(items, rtree.Config{})

	for _, pagerName := range []string{"simulated", "file"} {
		var pager storage.Pager
		switch pagerName {
		case "simulated":
			pager = storage.NewDisk(storage.DiskConfig{PageSize: 4096})
		case "file":
			fd, err := storage.CreateFileDisk(filepath.Join(t.TempDir(), "c.pages"), 4096)
			if err != nil {
				t.Fatal(err)
			}
			defer fd.Close()
			pager = fd
		}
		start, pages, err := WriteCompactPages(pager, c)
		if err != nil {
			t.Fatal(err)
		}
		if pages < 1 {
			t.Fatalf("%s: wrote %d pages", pagerName, pages)
		}
		pc, err := OpenPagedCompact(pager, start, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if pc.Len() != c.Len() || pc.Height() != c.Height() {
			t.Fatalf("%s: len/height %d/%d, want %d/%d", pagerName, pc.Len(), pc.Height(), c.Len(), c.Height())
		}
		queries := []geom.AABB{
			geom.NewAABB(geom.V(10, 10, 10), geom.V(30, 30, 30)),
			geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100)),
			geom.NewAABB(geom.V(200, 200, 200), geom.V(201, 201, 201)),
		}
		for qi, q := range queries {
			pc.ClearCache()
			got, err := pc.SearchIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			c.RangeVisit(q, func(it index.Item) bool {
				want = append(want, it.ID)
				return true
			})
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("%s q%d: %d results, want %d", pagerName, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s q%d: result %d = %d, want %d", pagerName, qi, i, got[i], want[i])
				}
			}
		}
		if pc.Counters().Snapshot().PagesRead == 0 {
			t.Fatalf("%s: no pages read counted", pagerName)
		}
	}
}
