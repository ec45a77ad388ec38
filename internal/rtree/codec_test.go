package rtree

import (
	"bytes"
	"errors"
	"testing"
)

// TestCompactCodecRoundTrip is the codec law: AppendBinary writes exactly
// BinarySize bytes, OverlayCompact spans exactly those bytes (trailing bytes
// are left alone), and re-encoding the overlay is byte-identical — the codec
// is a transcription, not a rebuild.
func TestCompactCodecRoundTrip(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	for _, n := range []int{0, 1, 5, 400, 3000} {
		c := FreezeItems(randomItems(n, int64(n)+7), Config{})
		blob := c.AppendBinary(nil)
		if got, want := len(blob), c.BinarySize(); got != want {
			t.Fatalf("n=%d: BinarySize %d, appended %d", n, want, got)
		}
		if _, consumed, err := OverlayCompact(append(blob, 0xAA, 0xBB)); err != nil || consumed != len(blob) {
			t.Fatalf("n=%d: overlay with trailing bytes: consumed %d of %d, err %v", n, consumed, len(blob), err)
		}
		ov, _, err := OverlayCompact(alignedBlob(c))
		if err != nil {
			t.Fatalf("n=%d: overlay: %v", n, err)
		}
		if !ov.ZeroCopy() {
			t.Fatalf("n=%d: overlay of an aligned buffer copied it", n)
		}
		if ov.Len() != c.Len() || ov.Height() != c.Height() || ov.Bounds() != c.Bounds() {
			t.Fatalf("n=%d: len/height/bounds %d/%d/%v, want %d/%d/%v",
				n, ov.Len(), ov.Height(), ov.Bounds(), c.Len(), c.Height(), c.Bounds())
		}
		if !bytes.Equal(blob, ov.AppendBinary(nil)) {
			t.Fatalf("n=%d: re-encode differs", n)
		}
	}
}

// TestSlabCopyEncoderMatchesFieldEncoder pins the little-endian fast path of
// AppendBinary to the portable field encoder byte for byte, including an
// overlay whose node padding carries stray bytes (the copy must clear them).
func TestSlabCopyEncoderMatchesFieldEncoder(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("slab copy is the little-endian path")
	}
	for _, n := range []int{0, 1, 17, 400, 3000} {
		c := FreezeItems(randomItems(n, int64(n)+11), Config{})
		if got, want := c.appendSlabBytes(nil), c.appendSlabFields(nil); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: slab copy differs from the field encoder", n)
		}
		if n == 0 {
			continue
		}
		blob := alignedBlob(c)
		for off := compactHeaderSize; off < compactHeaderSize+len(c.nodes)*CompactNodeSize; off += CompactNodeSize {
			blob[off+60] = 0x5A
		}
		ov, _, err := OverlayCompact(blob)
		if err != nil {
			t.Fatalf("n=%d: overlay with stray padding: %v", n, err)
		}
		if !bytes.Equal(ov.AppendBinary(nil), c.AppendBinary(nil)) {
			t.Fatalf("n=%d: stray node padding survived re-encoding", n)
		}
	}
}

// TestDecodeCompactRejectsCorruption runs the corruption table through the
// copying open — a misaligned buffer, which OverlayCompact copies into an
// aligned heap buffer. Validation precedes the copy, so corrupt bytes are
// rejected as ErrBadSnapshot here exactly as on the zero-copy path.
func TestDecodeCompactRejectsCorruption(t *testing.T) {
	if !OverlaySupported() {
		t.Skip("overlay unsupported on this platform")
	}
	c := FreezeItems(randomItems(200, 3), Config{})
	base := c.AppendBinary(nil)
	for name, corrupt := range compactCorruptions(c) {
		mutated := corrupt(misalignedBlob(base))
		cp, _, err := OverlayCompact(mutated)
		if err == nil {
			t.Fatalf("%s: copying open accepted corrupt snapshot (len %d)", name, cp.Len())
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: corruption not reported as ErrBadSnapshot: %v", name, err)
		}
	}
}
