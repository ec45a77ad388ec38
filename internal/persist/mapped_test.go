package persist

// Tests for the segment read path: the mapped segment lifecycle, mapped
// recovery equivalence with heap recovery, and corruption in both modes.

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
)

// shardIDs collects the sorted result ids of a range query against the
// shard record's R-Tree.
func shardIDs(t *testing.T, sr ShardRecord, q geom.AABB) []int64 {
	t.Helper()
	var ids []int64
	sr.RTree.RangeVisit(q, func(it index.Item) bool { ids = append(ids, it.ID); return true })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int64) bool {
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

func testQueries() []geom.AABB {
	return []geom.AABB{
		geom.NewAABB(geom.V(10, 10, 10), geom.V(30, 30, 30)),
		geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100)),
		geom.NewAABB(geom.V(200, 200, 200), geom.V(201, 201, 201)),
	}
}

// TestSegmentV2BlobAlignment pins the writer invariant the overlay relies
// on: every blob in a segment image starts 8-byte aligned.
func TestSegmentV2BlobAlignment(t *testing.T) {
	shards := testShards(t, 321, 29) // odd sizes → odd blob lengths
	image := EncodeSegment(1, 1, shards, 512)
	info, err := DecodeSegmentInfo(image, len(image))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := segmentDirectory(info, image[info.PageSize:info.PageSize+info.PayloadLen])
	if err != nil {
		t.Fatal(err)
	}
	payloadStart := info.PageSize
	if payloadStart%8 != 0 {
		t.Fatalf("payload starts at %d, not 8-byte aligned", payloadStart)
	}
	for i, rs := range raw {
		// Blob offset within the image: alias arithmetic against the
		// backing array.
		off := int64(cap(image)) - int64(cap(rs.blob))
		if off%8 != 0 {
			t.Fatalf("shard %d blob at image offset %d, not 8-byte aligned", i, off)
		}
	}
}

func TestOpenMappedSegmentLifecycle(t *testing.T) {
	shards := testShards(t, 800, 31)
	image := EncodeSegment(3, 8, shards, 4096)
	path := filepath.Join(t.TempDir(), "epoch.seg")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	sr := SnapshotRecord{EpochSeq: 3, BatchSeq: 8, SegSize: int64(len(image)), SegCRC: imageCRC(image)}
	ms, err := openSegment(path, sr, 4096, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Info.EpochSeq != 3 || ms.Info.BatchSeq != 8 || len(ms.Shards) != 2 {
		t.Fatalf("mapped segment: %+v, %d shards", ms.Info, len(ms.Shards))
	}
	if ms.Mapped() != MmapSupported() {
		t.Fatalf("Mapped() = %v with MmapSupported() = %v", ms.Mapped(), MmapSupported())
	}
	if MmapSupported() && rtree.OverlaySupported() && ms.ZeroCopyShards() != 2 {
		t.Fatalf("expected 2 zero-copy shards, got %d", ms.ZeroCopyShards())
	}
	if ms.Size() != int64(len(image)) {
		t.Fatalf("Size() = %d, want %d", ms.Size(), len(image))
	}
	for i := range shards {
		for qi, q := range testQueries() {
			want := shardIDs(t, shards[i], q)
			if got := shardIDs(t, ms.Shards[i], q); !equalIDs(got, want) {
				t.Fatalf("shard %d q%d: mapped results diverge from source", i, qi)
			}
		}
	}
	if n, ok := ms.Resident(); ok && n <= 0 || !ok && MmapSupported() && runtime.GOOS == "linux" {
		t.Fatalf("Resident() = %d, %v after touching every shard", n, ok)
	}
	if err := ms.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ms.Shards != nil {
		t.Fatal("Shards not released on Close")
	}
	// Double-close is a lifecycle violation (double-retire upstream), not a
	// silent no-op: it must surface as a hard error.
	if err := ms.Close(); !errors.Is(err, ErrSegmentClosed) {
		t.Fatalf("second Close = %v, want ErrSegmentClosed", err)
	}

	// Size or header disagreement with the manifest record must refuse to
	// open, in both modes.
	for _, mapped := range []bool{true, false} {
		big := sr
		big.SegSize += 4096
		if _, err := openSegment(path, big, 4096, 2, mapped); err == nil {
			t.Fatalf("mapped=%v: size mismatch accepted", mapped)
		}
		other := sr
		other.EpochSeq++
		if _, err := openSegment(path, other, 4096, 2, mapped); err == nil {
			t.Fatalf("mapped=%v: header disagreeing with the manifest accepted", mapped)
		}
	}
}

func TestRecoverMappedMatchesHeap(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shards := testShards(t, 1200, 41)
	if err := s.SaveEpoch(1, 1, shards); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LogBatch([]Update{{ID: 7, Delete: true}}); err != nil {
		t.Fatal(err)
	}

	heap, err := s.Recover(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := s.Recover(RecoverOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Mapping == nil {
		t.Fatal("mapped recovery carries no mapping")
	}
	defer mapped.Mapping.Close()
	if mapped.EpochSeq != heap.EpochSeq || mapped.BatchSeq != heap.BatchSeq {
		t.Fatalf("mapped identity (%d,%d), heap (%d,%d)",
			mapped.EpochSeq, mapped.BatchSeq, heap.EpochSeq, heap.BatchSeq)
	}
	if mapped.Items() != heap.Items() {
		t.Fatalf("mapped recovers %d items, heap %d", mapped.Items(), heap.Items())
	}
	if len(mapped.Pending) != len(heap.Pending) {
		t.Fatalf("mapped sees %d pending batches, heap %d", len(mapped.Pending), len(heap.Pending))
	}
	if heap.Mapping != nil || heap.ZeroCopyShards != 0 {
		t.Fatalf("heap recovery reports a mapping (%v) or zero-copy shards (%d)", heap.Mapping != nil, heap.ZeroCopyShards)
	}
	// One read path: in both modes the R-Tree shard is an overlay of the
	// segment image, not a decoded copy.
	if !heap.Shards[0].RTree.ZeroCopy() {
		t.Fatal("heap-recovered R-Tree shard is not an overlay of the image")
	}
	if MmapSupported() {
		if mapped.ZeroCopyShards != 2 {
			t.Fatalf("ZeroCopyShards = %d", mapped.ZeroCopyShards)
		}
		if !mapped.Shards[0].RTree.ZeroCopy() {
			t.Fatal("R-Tree shard is not a zero-copy overlay")
		}
	}
	for i := range heap.Shards {
		for qi, q := range testQueries() {
			want := shardIDs(t, heap.Shards[i], q)
			if got := shardIDs(t, mapped.Shards[i], q); !equalIDs(got, want) {
				t.Fatalf("shard %d q%d: mapped recovery diverges from heap", i, qi)
			}
		}
	}
}

// TestRecoverMappedRejectsStructuralCorruption flips bytes the mapped path
// must catch without a checksum: the header, the shard directory, and the
// R-Tree node slab; heap recovery must reject them too. (Leaf payload bytes
// are the documented trust boundary — only the CRC-verifying heap path
// catches those.)
func TestRecoverMappedRejectsStructuralCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveEpoch(1, 1, testShards(t, 300, 43)); err != nil {
		t.Fatal(err)
	}
	var seg string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			seg = filepath.Join(dir, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no segment file written")
	}
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int) {
		t.Helper()
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(seg, mut, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"header-shard-count", 24},
		{"directory-blob-length", 512 + 56},
		{"node-slab-child-index", 512 + 64 + 32 + 48}, // first node record's child index
	} {
		corrupt(tc.off)
		if rec, err := s.Recover(RecoverOptions{Mapped: true}); err == nil {
			rec.Mapping.Close()
			t.Fatalf("%s: corruption at byte %d recovered cleanly", tc.name, tc.off)
		}
		if _, err := s.Recover(RecoverOptions{}); err == nil {
			t.Fatalf("%s: heap recovery accepted corruption at byte %d", tc.name, tc.off)
		}
	}
	// Truncation (size disagrees with the manifest) must also refuse.
	if err := os.WriteFile(seg, pristine[:len(pristine)-512], 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := s.Recover(RecoverOptions{Mapped: true}); err == nil {
		rec.Mapping.Close()
		t.Fatal("truncated segment recovered cleanly")
	}
	if _, err := s.Recover(RecoverOptions{}); err == nil {
		t.Fatal("heap recovery accepted a truncated segment")
	}
	// Restore and confirm the pristine image still recovers.
	if err := os.WriteFile(seg, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover(RecoverOptions{Mapped: true})
	if err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}
	rec.Mapping.Close()
}
