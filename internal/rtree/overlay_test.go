package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

func alignOf(b []byte) uintptr { return uintptr(unsafe.Pointer(&b[0])) }

// alignedBlob serializes c into an 8-byte-aligned buffer (mmap regions are
// page-aligned; heap test buffers need a nudge).
func alignedBlob(c *Compact) []byte {
	raw := c.AppendBinary(nil)
	buf := make([]byte, len(raw)+8)
	for off := 0; off < 8; off++ {
		if addrAligned(buf[off:]) {
			return append(buf[off:off:off+len(raw)], raw...)
		}
	}
	return raw
}

func addrAligned(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return alignOf(b)%8 == 0
}

// misalignedBlob copies raw into a buffer that starts off an 8-byte
// boundary, which sends OverlayCompact down its aligned-copy path.
func misalignedBlob(raw []byte) []byte {
	buf := make([]byte, len(raw)+9)
	for off := 0; off < 9; off++ {
		if !addrAligned(buf[off:]) {
			return append(buf[off:off:off+len(raw)], raw...)
		}
	}
	return nil
}

// compactCorruptions names mutations of c's serialized bytes that every open
// of them, zero-copy or copying, must reject.
func compactCorruptions(c *Compact) map[string]func(b []byte) []byte {
	firstLeaf := compactHeaderSize + int(c.leafStart)*CompactNodeSize
	return map[string]func(b []byte) []byte{
		"empty":          func(b []byte) []byte { return nil },
		"short header":   func(b []byte) []byte { return b[:16] },
		"truncated body": func(b []byte) []byte { return b[:len(b)/2] },
		"magic":          func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"node count":     func(b []byte) []byte { b[4] = 0xFF; b[5] = 0xFF; return b },
		"huge node count": func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		},
		"leaf count":     func(b []byte) []byte { b[8] = 0xFF; b[9] = 0xFF; return b },
		"leafstart":      func(b []byte) []byte { b[12] = 0xFF; return b },
		"heap cap":       func(b []byte) []byte { b[24] = 0xFF; b[25] = 0xFF; b[26] = 0xFF; return b },
		"node first":     func(b []byte) []byte { b[compactHeaderSize+48] = 0xFF; return b },
		"node count ref": func(b []byte) []byte { b[compactHeaderSize+52] = 0xFF; return b },
		"leaf flag 2":    func(b []byte) []byte { b[compactHeaderSize+56] = 2; return b },
		"leaf run overflow": func(b []byte) []byte {
			b[firstLeaf+52], b[firstLeaf+53], b[firstLeaf+54], b[firstLeaf+55] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		},
		"declares one more node": func(b []byte) []byte { b[4]++; return b },
	}
}

// testQueries returns four fixed probes (inside, whole universe, tiny,
// disjoint) followed by n random boxes with extents up to ext.
func testQueries(seed int64, n int, ext float64) []geom.AABB {
	queries := []geom.AABB{
		geom.NewAABB(geom.V(10, 10, 10), geom.V(40, 40, 40)),
		geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100)),
		geom.NewAABB(geom.V(90, 90, 90), geom.V(91, 91, 91)),
		geom.NewAABB(geom.V(-10, -10, -10), geom.V(-1, -1, -1)),
	}
	r := rand.New(rand.NewSource(seed))
	for q := 0; q < n; q++ {
		lo := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		d := geom.V(r.Float64()*ext, r.Float64()*ext, r.Float64()*ext)
		queries = append(queries, geom.NewAABB(lo, lo.Add(d)))
	}
	return queries
}

// sameItems fails unless got lists want's items in want's order.
func sameItems(t *testing.T, what string, want, got []index.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestOverlayCompactMatchesDecode is the overlay-vs-frozen law: the zero-copy
// overlay of an aligned buffer and the copying open of a misaligned one both
// answer range and kNN queries exactly as the frozen snapshot they were
// written from, in the same order.
func TestOverlayCompactMatchesDecode(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	queries := testQueries(11, 50, 40)
	for _, n := range []int{0, 1, 5, 400, 3000} {
		c := FreezeItems(randomItems(n, int64(n)+11), Config{})
		ov, _, err := OverlayCompact(alignedBlob(c))
		if err != nil {
			t.Fatalf("n=%d: overlay: %v", n, err)
		}
		cp, _, err := OverlayCompact(misalignedBlob(c.AppendBinary(nil)))
		if err != nil {
			t.Fatalf("n=%d: copying open: %v", n, err)
		}
		if n > 0 && cp.ZeroCopy() {
			t.Fatalf("n=%d: open of a misaligned buffer claims zero copy", n)
		}
		for name, got := range map[string]*Compact{"overlay": ov, "copy": cp} {
			for qi, q := range queries {
				sameItems(t, fmt.Sprintf("n=%d %s q%d", n, name, qi), index.VisitAll(c, q), index.VisitAll(got, q))
			}
			for _, p := range []geom.Vec3{geom.V(50, 50, 50), geom.V(-5, 0, 200)} {
				sameItems(t, fmt.Sprintf("n=%d %s knn %v", n, name, p), c.KNN(p, 10), got.KNN(p, 10))
			}
		}
	}
}

// TestRangeVisitBatchWideLeaves pins RangeVisitBatch — the name the
// benchmark trace times, an alias of RangeVisit — over an overlay whose leaf
// runs are far wider than the default fan-out (up to 200 entries): same
// results in the same order as the frozen tree, and an early-stopping
// visitor stops after the same prefix.
func TestRangeVisitBatchWideLeaves(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	c := FreezeItems(randomItems(4000, 31), Config{MaxEntries: 200, MinEntries: 80})
	ov, _, err := OverlayCompact(alignedBlob(c))
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range testQueries(7, 100, 40) {
		var a, b []index.Item
		c.RangeVisit(q, func(it index.Item) bool { a = append(a, it); return true })
		ov.RangeVisitBatch(q, func(it index.Item) bool { b = append(b, it); return true })
		sameItems(t, fmt.Sprintf("q%d", qi), a, b)
		if stop := len(a) / 2; stop > 0 {
			var p []index.Item
			ov.RangeVisitBatch(q, func(it index.Item) bool { p = append(p, it); return len(p) < stop })
			sameItems(t, fmt.Sprintf("q%d early stop", qi), a[:stop], p)
		}
	}
}

func TestOverlayCompactRejectsCorruption(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	c := FreezeItems(randomItems(200, 3), Config{})
	for name, corrupt := range compactCorruptions(c) {
		ov, _, err := OverlayCompact(corrupt(alignedBlob(c)))
		if err == nil {
			t.Fatalf("%s: overlay accepted corrupt snapshot (len %d)", name, ov.Len())
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: corruption not reported as ErrBadSnapshot: %v", name, err)
		}
	}
}

// TestOverlayCompactMisaligned pins the one fallback: a buffer that is not
// 8-byte aligned is overlaid through an aligned copy, answering exactly as
// the aligned overlay does.
func TestOverlayCompactMisaligned(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	c := FreezeItems(randomItems(50, 5), Config{})
	base := c.AppendBinary(nil)
	ov, n, err := OverlayCompact(misalignedBlob(base))
	if err != nil {
		t.Fatalf("misaligned overlay: %v", err)
	}
	if ov.ZeroCopy() {
		t.Fatal("misaligned overlay claims to alias its buffer")
	}
	if n != len(base) || ov.Len() != c.Len() {
		t.Fatalf("misaligned overlay spans %d bytes, %d items; want %d, %d", n, ov.Len(), len(base), c.Len())
	}
	q := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	sameItems(t, "misaligned overlay", index.VisitAll(c, q), index.VisitAll(ov, q))
}

func TestOverlayRangeVisitZeroAllocs(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	if raceEnabled {
		t.Skip("allocation counts are skewed by race instrumentation")
	}
	c := FreezeItems(randomItems(3000, 17), Config{})
	ov, _, err := OverlayCompact(alignedBlob(c))
	if err != nil {
		t.Fatal(err)
	}
	query := geom.NewAABB(geom.V(20, 20, 20), geom.V(60, 60, 60))
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		ov.RangeVisit(query, func(index.Item) bool { n++; return true })
	})
	if allocs != 0 {
		t.Fatalf("RangeVisit allocates %v times per run, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("query returned nothing; alloc gate is vacuous")
	}
	// Warm KNN must also be allocation-free apart from the caller buffer.
	buf := make([]index.Item, 0, 16)
	ov.KNNInto(geom.V(50, 50, 50), 10, buf) // warm the pool
	allocs = testing.AllocsPerRun(100, func() {
		buf = ov.KNNInto(geom.V(50, 50, 50), 10, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm KNNInto allocates %v times per run, want 0", allocs)
	}
}
