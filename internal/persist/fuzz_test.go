package persist

// Native fuzz targets for the on-disk decoders. Contract under fuzz: a
// decoder handed arbitrary bytes may reject them, but must never panic,
// never allocate proportionally to a corrupted header field, and — when it
// accepts — must hand back structures whose re-encoding decodes to the same
// thing (the round-trip law the recovery path depends on).

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
)

func fuzzSeedSegment() []byte {
	items := make([]index.Item, 64)
	for i := range items {
		f := float64(i)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.NewAABB(geom.V(f, f, f), geom.V(f+1, f+1, f+1))}
	}
	shards := []ShardRecord{
		{Bounds: boundsOf(items[:32]), RTree: rtree.FreezeItems(items[:32], rtree.Config{})},
		{Bounds: boundsOf(items[32:]), Items: items[32:]},
	}
	return EncodeSegment(3, 7, shards, 512)
}

// checkSegmentDecode is the body of both segment fuzzers: it drives the one
// segment decoder on data, with or without the payload CRC check. Whatever
// is accepted must be traversable without panics or out-of-range access,
// and must re-encode to a segment that decodes (CRC-checked) to the same
// shard shapes.
func checkSegmentDecode(t *testing.T, data []byte, verifyCRC bool) ([]ShardRecord, bool) {
	t.Helper()
	info, shards, err := DecodeSegment(data, 2, verifyCRC)
	if err != nil {
		return nil, false
	}
	if len(shards) != info.ShardCount {
		t.Fatalf("decoded %d shards, header says %d", len(shards), info.ShardCount)
	}
	query := geom.NewAABB(geom.V(-1000, -1000, -1000), geom.V(1000, 1000, 1000))
	for _, sr := range shards {
		if sr.RTree == nil {
			continue
		}
		n := 0
		sr.RTree.RangeVisit(query, func(index.Item) bool { n++; return n < 10000 })
		sr.RTree.KNN(geom.V(1, 2, 3), 3)
	}
	re := EncodeSegment(info.EpochSeq, info.BatchSeq, shards, info.PageSize)
	info2, shards2, err := DecodeSegment(re, 2, true)
	if err != nil {
		t.Fatalf("re-encoded segment rejected: %v", err)
	}
	if info2.EpochSeq != info.EpochSeq || info2.BatchSeq != info.BatchSeq || len(shards2) != len(shards) {
		t.Fatalf("re-encode changed identity: %+v vs %+v", info2, info)
	}
	for i := range shards {
		if shards[i].Len() != shards2[i].Len() {
			t.Fatalf("shard %d: %d items became %d", i, shards[i].Len(), shards2[i].Len())
		}
	}
	return shards, true
}

// FuzzDecodeSegment drives the segment decoder as heap recovery runs it,
// with the payload CRC checked.
func FuzzDecodeSegment(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:511])
	flipped := append([]byte(nil), seed...)
	flipped[600] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("not a segment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		checkSegmentDecode(t, data, true)
	})
}

// FuzzDecodeSegmentMapped drives the segment decoder as the mapped open runs
// it, with the CRC check off: no checksum stands between arbitrary bytes and
// the overlays, so structural validation alone must reject corruption that
// could fault. The CRC check may only add rejections: where the checked
// decode also accepts, both see the same shard shapes.
func FuzzDecodeSegmentMapped(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:511])
	// Flip a byte inside the first shard's blob-length field (payload at
	// page 1, record header is kind+pad(8) + bounds(48), length at +56).
	flippedLen := append([]byte(nil), seed...)
	flippedLen[512+56] ^= 0xFF
	f.Add(flippedLen)
	flipped := append([]byte(nil), seed...)
	flipped[600] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("not a segment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		shards, ok := checkSegmentDecode(t, data, false)
		_, checked, err := DecodeSegment(data, 2, true)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("CRC-checked decode accepted what the unchecked decode rejects")
		}
		if len(checked) != len(shards) {
			t.Fatalf("unchecked decode has %d shards, checked %d", len(shards), len(checked))
		}
		for i := range checked {
			if checked[i].Len() != shards[i].Len() {
				t.Fatalf("shard %d: unchecked %d items, checked %d", i, shards[i].Len(), checked[i].Len())
			}
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	var seed []byte
	seed = encodeSnapshotRecord(seed, SnapshotRecord{EpochSeq: 2, BatchSeq: 5, SegSize: 4096, SegCRC: 0xABCD, Name: "epoch-0000000000000002.seg"})
	seed = encodeBatchRecord(seed, BatchRecord{Seq: 6, Updates: []Update{
		{ID: 1, Box: geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1))},
		{ID: 2, Delete: true},
	}})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		snaps, batches, _ := DecodeManifest(data)
		// Round-trip law: re-encoding the accepted records yields a manifest
		// that replays to exactly the same records, untorn.
		var re []byte
		for _, sr := range snaps {
			re = encodeSnapshotRecord(re, sr)
		}
		for _, br := range batches {
			re = encodeBatchRecord(re, br)
		}
		snaps2, batches2, torn := DecodeManifest(re)
		if torn {
			t.Fatalf("re-encoded manifest replays torn")
		}
		if len(snaps2) != len(snaps) || len(batches2) != len(batches) {
			t.Fatalf("re-encode changed record counts: %d/%d vs %d/%d",
				len(snaps2), len(batches2), len(snaps), len(batches))
		}
		for i := range snaps {
			if snaps2[i] != snaps[i] {
				t.Fatalf("snapshot record %d changed: %+v vs %+v", i, snaps2[i], snaps[i])
			}
		}
		for i := range batches {
			if batches2[i].Seq != batches[i].Seq || len(batches2[i].Updates) != len(batches[i].Updates) {
				t.Fatalf("batch record %d changed", i)
			}
		}
	})
}

// compactAnswers is the range and kNN answer list fuzzers compare overlays
// by, capped so a corrupt-but-accepted tree cannot run away.
func compactAnswers(c *rtree.Compact) []int64 {
	var ids []int64
	q := geom.NewAABB(geom.V(-10, -10, -10), geom.V(110, 110, 110))
	c.RangeVisit(q, func(it index.Item) bool { ids = append(ids, it.ID); return len(ids) < 10000 })
	for _, it := range c.KNN(geom.V(1, 2, 3), 5) {
		ids = append(ids, it.ID)
	}
	return ids
}

// placeAt copies b to an address off bytes past an 8-byte boundary: off 0
// gives the zero-copy overlay an aligned buffer, any other off sends it down
// its aligned-copy path.
func placeAt(b []byte, off int) []byte {
	words := make([]uint64, (off+len(b)+7)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)
	return append(buf[off:off:off+len(b)], b...)
}

// FuzzOverlayCompact drives the slab overlay, the only reader of serialized
// R-Tree snapshots. Whatever it accepts must traverse without faulting, and
// must re-encode (AppendBinary) to bytes that overlay again to the same
// length, height and answers.
func FuzzOverlayCompact(f *testing.F) {
	items := testItems(200, 13)
	blob := rtree.FreezeItems(items, rtree.Config{}).AppendBinary(nil)
	f.Add(blob)
	f.Add(blob[:len(blob)/3])
	mutated := append([]byte(nil), blob...)
	mutated[40] ^= 0x10
	f.Add(mutated)
	flippedCount := append([]byte(nil), blob...)
	flippedCount[4] ^= 0xFF // node count
	f.Add(flippedCount)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		c, _, err := rtree.OverlayCompact(data)
		if err != nil {
			return
		}
		want := compactAnswers(c)
		c2, n2, err := rtree.OverlayCompact(c.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-encoded overlay rejected: %v", err)
		}
		if n2 != c.BinarySize() || c2.Len() != c.Len() || c2.Height() != c.Height() {
			t.Fatalf("re-encode changed shape: %d bytes, %d items, height %d; want %d, %d, %d",
				n2, c2.Len(), c2.Height(), c.BinarySize(), c.Len(), c.Height())
		}
		if got := compactAnswers(c2); !equalIDs(got, want) {
			t.Fatalf("re-encoded overlay answers %d ids, original %d", len(got), len(want))
		}
	})
}

// FuzzDecodeCompact drives the copying open of a snapshot: bytes at a
// misaligned address, which OverlayCompact validates and then copies into
// an aligned heap buffer. It must agree with the zero-copy overlay of the
// same bytes — the same acceptance, span, length, height and answers — and
// whatever it accepts must traverse without faulting.
func FuzzDecodeCompact(f *testing.F) {
	items := testItems(200, 13)
	blob := rtree.FreezeItems(items, rtree.Config{}).AppendBinary(nil)
	f.Add(blob)
	f.Add(blob[:len(blob)/3])
	mutated := append([]byte(nil), blob...)
	mutated[40] ^= 0x10
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		cp, n, err := rtree.OverlayCompact(placeAt(data, 1))
		ov, on, oerr := rtree.OverlayCompact(placeAt(data, 0))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("copying open err %v, zero-copy overlay err %v", err, oerr)
		}
		if err != nil {
			return
		}
		if n != on || cp.Len() != ov.Len() || cp.Height() != ov.Height() {
			t.Fatalf("copy (%d bytes, %d items, height %d) disagrees with overlay (%d, %d, %d)",
				n, cp.Len(), cp.Height(), on, ov.Len(), ov.Height())
		}
		if got, want := compactAnswers(cp), compactAnswers(ov); !equalIDs(got, want) {
			t.Fatalf("copy answers %d ids, overlay %d", len(got), len(want))
		}
	})
}

// TestFuzzSeedsHoldRoundTrip pins the seeds' behavior in a plain test, so
// `go test` (without -fuzz) still executes every fuzz body on the committed
// corpus plus the in-code seeds.
func TestFuzzSeedsHoldRoundTrip(t *testing.T) {
	seg := fuzzSeedSegment()
	if _, _, err := DecodeSegment(seg, 2, true); err != nil {
		t.Fatalf("seed segment rejected: %v", err)
	}
	bad := append([]byte(nil), seg...)
	bad[600] ^= 0xFF
	if _, _, err := DecodeSegment(bad, 2, true); err == nil {
		t.Fatal("corrupted seed segment accepted")
	}
	// The committed seed was written by an earlier build of the encoder: the
	// on-disk format must still decode, checksum included.
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSegment", "seed-valid"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	committed, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("committed seed does not parse: %v", err)
	}
	if _, shards, err := DecodeSegment([]byte(committed), 2, true); err != nil || len(shards) != 2 {
		t.Fatalf("committed seed segment: %d shards, err %v", len(shards), err)
	}
}
