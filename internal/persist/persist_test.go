package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
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
		{Bounds: boundsOf(items[half:]), RTree: rtree.FreezeItems(items[half:], rtree.Config{})},
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
	for i := range shards {
		if dec[i].RTree == nil || dec[i].Bounds != shards[i].Bounds {
			t.Fatalf("shard %d lost its R-Tree or bounds: %+v", i, dec[i])
		}
		all := shards[i].Bounds.Expand(1)
		want, got := index.VisitAll(shards[i].RTree, all), index.VisitAll(dec[i].RTree, all)
		if !slices.Equal(got, want) {
			t.Fatalf("shard %d: %d items decoded, want the %d encoded in order", i, len(got), len(want))
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
	sn := SnapshotRecord{EpochSeq: 3, BatchSeq: 9, SegSize: 8192, SegCRC: 0xDEAD, Name: "epoch-3.seg", Refs: []uint64{1, 2}}
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
	if !sameSnapshotRecord(snaps[0], sn) {
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
