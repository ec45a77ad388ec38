package rtree

// Zero-copy overlay: the serialized Compact layout (codec.go) is, byte for
// byte, the in-memory layout of the node slab and SoA leaf arrays on a
// little-endian machine — 64-byte node records matching compactNode's
// explicitly padded struct, then []geom.AABB, then []int64. OverlayCompact
// points the slab slices straight into the caller's buffer (a segment image
// read onto the heap, or an mmap'd segment), so opening a snapshot is
// O(validate) with no copy and no allocation proportional to tree size, and
// mapped leaf pages are not faulted in until a query touches them. It is the
// only way serialized bytes become a queryable Compact.
//
// Safety is layered, never assumed:
//
//   - the struct layout the overlay relies on is asserted at compile time on
//     every GOARCH; the byte order is probed once, and big-endian hosts get
//     ErrOverlayUnsupported (persist.Open refuses them up front);
//   - a buffer that is not 8-byte aligned is copied once into an aligned
//     heap buffer and the copy is overlaid (mmap regions and heap segment
//     images are aligned, so this is the rare path);
//   - every node record is bounds-, orientation- and bool-validated from the
//     raw bytes before any unsafe view is built, so traversing an overlay of
//     arbitrary bytes cannot index out of range, loop, or materialize an
//     invalid Go bool.

import (
	"errors"
	"fmt"
	"unsafe"

	"spatialsim/internal/geom"
)

// ErrOverlayUnsupported reports a big-endian host: the serialized format is
// little-endian and is only ever read as an overlay.
var ErrOverlayUnsupported = errors.New("rtree: snapshot overlay needs a little-endian host")

// The overlay's layout contract, checked by the compiler: each line fails to
// compile (array length mismatch, or a negative uintptr constant) unless the
// in-memory size or offset equals the serialized one.
var (
	_ [0]struct{} = [unsafe.Sizeof(compactNode{}) - CompactNodeSize]struct{}{}
	_ [0]struct{} = [unsafe.Offsetof(compactNode{}.box)]struct{}{}
	_ [0]struct{} = [unsafe.Offsetof(compactNode{}.first) - 48]struct{}{}
	_ [0]struct{} = [unsafe.Offsetof(compactNode{}.count) - 52]struct{}{}
	_ [0]struct{} = [unsafe.Offsetof(compactNode{}.leaf) - 56]struct{}{}
	_ [0]struct{} = [unsafe.Sizeof(geom.AABB{}) - CompactLeafBoxSize]struct{}{}
	_ [0]struct{} = [unsafe.Sizeof(int64(0)) - CompactLeafIDSize]struct{}{}
)

// overlayLittleEndian probes the host's byte order once: the wire format is
// little-endian, so only little-endian hosts can overlay it.
var overlayLittleEndian = func() bool {
	probe := uint32(0x01020304)
	return *(*byte)(unsafe.Pointer(&probe)) == 0x04
}()

// OverlaySupported reports whether this host can overlay serialized
// snapshots, i.e. whether it is little-endian.
func OverlaySupported() bool { return overlayLittleEndian }

// OverlayCompact opens a snapshot serialized by AppendBinary from the front
// of data without copying it: the returned Compact's node slab and SoA leaf
// arrays alias data, which must stay immutable and outlive the snapshot.
// Every node reference is bounds- and orientation-checked and leaf flag
// bytes must be strictly 0 or 1, so the overlaid Go bools are well-formed.
// If data is not 8-byte aligned the snapshot is overlaid on an aligned copy
// instead (ZeroCopy reports false). Returns the snapshot and the number of
// bytes it spans, ErrBadSnapshot when the bytes are corrupt, or
// ErrOverlayUnsupported on a big-endian host.
func OverlayCompact(data []byte) (*Compact, int, error) {
	if !overlayLittleEndian {
		return nil, 0, ErrOverlayUnsupported
	}
	h, err := DecodeCompactHeader(data, len(data))
	if err != nil {
		return nil, 0, err
	}
	c := &Compact{
		size:      h.Size,
		height:    h.Height,
		leafStart: h.LeafStart,
		heapCap:   h.HeapCap,
		zeroCopy:  true,
	}
	c.initPools()
	if h.NodeCount == 0 {
		return c, h.BinarySize(), nil
	}
	// Validate every node from the raw bytes before building any view. This
	// touches only the node region (the index skeleton, a few percent of the
	// snapshot); leaf pages stay untouched until queries fault them in.
	off := h.NodesOffset()
	for i := 0; i < h.NodeCount; i++ {
		rec := data[off+i*CompactNodeSize:]
		if rec[56] > 1 {
			return nil, 0, fmt.Errorf("%w: node %d leaf flag %d", ErrBadSnapshot, i, rec[56])
		}
		_, first, count, leaf := DecodeCompactNode(rec)
		if err := validateNode(h, i, first, count, leaf); err != nil {
			return nil, 0, err
		}
	}
	buf := data[:h.BinarySize()]
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		buf, c.zeroCopy = alignedCopy(buf), false
	}
	c.nodes = unsafe.Slice((*compactNode)(unsafe.Pointer(&buf[off])), h.NodeCount)
	if h.LeafCount > 0 {
		c.leafBoxes = unsafe.Slice((*geom.AABB)(unsafe.Pointer(&buf[h.LeafBoxesOffset()])), h.LeafCount)
		c.leafIDs = unsafe.Slice((*int64)(unsafe.Pointer(&buf[h.LeafIDsOffset()])), h.LeafCount)
	}
	return c, h.BinarySize(), nil
}

// alignedCopy copies b into a fresh 8-byte-aligned heap buffer: it is backed
// by a []uint64, and the first word of an allocated array is 64-bit aligned
// on every platform (the guarantee sync/atomic documents).
func alignedCopy(b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
	copy(out, b)
	return out
}
