package rtree

// Binary codec for the Compact snapshot. The layout is the slab itself,
// little-endian with fixed-width records — the int32-offset node slab and the
// SoA leaf arrays are already position-independent, so serialization is a
// straight transcription, and reading it back is not a decode at all:
// OverlayCompact (overlay.go) points a Compact's slices at the bytes, and the
// overlay answers queries identically to the frozen original (same
// traversal, same visit order). Fixed 64-byte node records and the
// contiguous SoA regions also give the paged disk read path
// (internal/persist) O(1) offset arithmetic into the same bytes: one format,
// overlaid in memory or queried page by page.
//
// Layout (all little-endian):
//
//	[0:4)   magic "RTC1"
//	[4:8)   node count
//	[8:12)  leaf entry count
//	[12:16) leafStart (slab index of the first leaf node, int32)
//	[16:20) item count
//	[20:24) height
//	[24:28) KNN heap capacity
//	[28:32) reserved (zero)
//	[32:)   nodes   — node count x 64 B (box 6xf64, first i32, count i32, leaf u8, pad)
//	then    leafBoxes — leaf count x 48 B (6xf64)
//	then    leafIDs   — leaf count x 8 B (i64)

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"spatialsim/internal/geom"
)

const (
	compactMagic = 0x31435452 // "RTC1"

	compactHeaderSize = 32
	// CompactNodeSize is the serialized size of one slab node record.
	CompactNodeSize = 64
	// CompactLeafBoxSize is the serialized size of one leaf box.
	CompactLeafBoxSize = 48
	// CompactLeafIDSize is the serialized size of one leaf id.
	CompactLeafIDSize = 8

	// maxHeapCap bounds the decoded KNN heap capacity: a corrupted header
	// must not translate into an arbitrary-size allocation on first use.
	maxHeapCap = 1 << 16
)

// ErrBadSnapshot is wrapped by every decode failure.
var ErrBadSnapshot = errors.New("rtree: bad compact snapshot")

// BinarySize returns the exact number of bytes AppendBinary will append.
func (c *Compact) BinarySize() int {
	return compactHeaderSize + len(c.nodes)*CompactNodeSize + len(c.leafIDs)*(CompactLeafBoxSize+CompactLeafIDSize)
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendBox(buf []byte, b geom.AABB) []byte {
	buf = appendF64(buf, b.Min.X)
	buf = appendF64(buf, b.Min.Y)
	buf = appendF64(buf, b.Min.Z)
	buf = appendF64(buf, b.Max.X)
	buf = appendF64(buf, b.Max.Y)
	buf = appendF64(buf, b.Max.Z)
	return buf
}

// AppendBinary appends the serialized snapshot to buf and returns the
// extended slice. buf grows at most once, to BinarySize more bytes.
func (c *Compact) AppendBinary(buf []byte) []byte {
	buf = slices.Grow(buf, c.BinarySize())
	buf = appendU32(buf, compactMagic)
	buf = appendU32(buf, uint32(len(c.nodes)))
	buf = appendU32(buf, uint32(len(c.leafIDs)))
	buf = appendU32(buf, uint32(c.leafStart))
	buf = appendU32(buf, uint32(c.size))
	buf = appendU32(buf, uint32(c.height))
	buf = appendU32(buf, uint32(c.heapCap))
	buf = appendU32(buf, 0)
	if overlayLittleEndian {
		return c.appendSlabBytes(buf)
	}
	return c.appendSlabFields(buf)
}

// appendSlabFields encodes the slabs field by field, little-endian on any
// host: the body of AppendBinary on big-endian hosts.
func (c *Compact) appendSlabFields(buf []byte) []byte {
	for i := range c.nodes {
		n := &c.nodes[i]
		buf = appendBox(buf, n.box)
		buf = appendU32(buf, uint32(n.first))
		buf = appendU32(buf, uint32(n.count))
		leaf := byte(0)
		if n.leaf {
			leaf = 1
		}
		buf = append(buf, leaf, 0, 0, 0, 0, 0, 0, 0)
	}
	for i := range c.leafBoxes {
		buf = appendBox(buf, c.leafBoxes[i])
	}
	for i := range c.leafIDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.leafIDs[i]))
	}
	return buf
}

// appendSlabBytes is AppendBinary's body on a little-endian host, where the
// serialized records are the in-memory slabs byte for byte (the layout
// contract overlay.go asserts): each slab is one copy. Node padding is
// cleared after the copy, so an overlay of bytes with stray padding still
// re-encodes to the canonical form the field encoder writes.
func (c *Compact) appendSlabBytes(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, slabBytes(c.nodes)...)
	for off := start; off < len(buf); off += CompactNodeSize {
		clear(buf[off+57 : off+CompactNodeSize])
	}
	buf = append(buf, slabBytes(c.leafBoxes)...)
	return append(buf, slabBytes(c.leafIDs)...)
}

// slabBytes views a slab as its raw bytes.
func slabBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

func readF64(data []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data))
}

func readBox(data []byte) geom.AABB {
	return geom.AABB{
		Min: geom.Vec3{X: readF64(data), Y: readF64(data[8:]), Z: readF64(data[16:])},
		Max: geom.Vec3{X: readF64(data[24:]), Y: readF64(data[32:]), Z: readF64(data[40:])},
	}
}

// CompactHeader is the decoded fixed-size prefix of a serialized snapshot.
// The paged read path decodes it alone and then addresses node and leaf
// records by offset without materializing the snapshot.
type CompactHeader struct {
	NodeCount int
	LeafCount int
	LeafStart int32
	Size      int
	Height    int
	HeapCap   int
}

// NodesOffset returns the byte offset of the node region.
func (h CompactHeader) NodesOffset() int { return compactHeaderSize }

// LeafBoxesOffset returns the byte offset of the leaf box region.
func (h CompactHeader) LeafBoxesOffset() int {
	return compactHeaderSize + h.NodeCount*CompactNodeSize
}

// LeafIDsOffset returns the byte offset of the leaf id region.
func (h CompactHeader) LeafIDsOffset() int {
	return h.LeafBoxesOffset() + h.LeafCount*CompactLeafBoxSize
}

// BinarySize returns the total serialized size implied by the header.
func (h CompactHeader) BinarySize() int {
	return h.LeafIDsOffset() + h.LeafCount*CompactLeafIDSize
}

// DecodeCompactHeader validates and decodes the fixed-size header. Counts are
// checked against avail (the total bytes available for the snapshot) before
// any count-sized allocation, so a corrupted header cannot demand one.
func DecodeCompactHeader(data []byte, avail int) (CompactHeader, error) {
	var h CompactHeader
	if len(data) < compactHeaderSize {
		return h, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadSnapshot, len(data), compactHeaderSize)
	}
	if m := binary.LittleEndian.Uint32(data); m != compactMagic {
		return h, fmt.Errorf("%w: magic %#x", ErrBadSnapshot, m)
	}
	h.NodeCount = int(binary.LittleEndian.Uint32(data[4:]))
	h.LeafCount = int(binary.LittleEndian.Uint32(data[8:]))
	h.LeafStart = int32(binary.LittleEndian.Uint32(data[12:]))
	h.Size = int(binary.LittleEndian.Uint32(data[16:]))
	h.Height = int(binary.LittleEndian.Uint32(data[20:]))
	h.HeapCap = int(binary.LittleEndian.Uint32(data[24:]))
	need := int64(compactHeaderSize) + int64(h.NodeCount)*CompactNodeSize +
		int64(h.LeafCount)*(CompactLeafBoxSize+CompactLeafIDSize)
	if need > int64(avail) {
		return h, fmt.Errorf("%w: declares %d bytes, have %d", ErrBadSnapshot, need, avail)
	}
	if h.Size < 0 || h.Height < 0 {
		return h, fmt.Errorf("%w: negative size/height", ErrBadSnapshot)
	}
	if (h.NodeCount == 0) != (h.Size == 0) {
		return h, fmt.Errorf("%w: %d nodes for %d items", ErrBadSnapshot, h.NodeCount, h.Size)
	}
	if h.NodeCount == 0 && h.LeafCount != 0 {
		return h, fmt.Errorf("%w: %d leaf entries without nodes", ErrBadSnapshot, h.LeafCount)
	}
	if h.NodeCount > 0 && (h.LeafStart < 0 || int(h.LeafStart) > h.NodeCount) {
		return h, fmt.Errorf("%w: leafStart %d of %d nodes", ErrBadSnapshot, h.LeafStart, h.NodeCount)
	}
	if h.HeapCap < 0 || h.HeapCap > maxHeapCap {
		return h, fmt.Errorf("%w: heap capacity %d", ErrBadSnapshot, h.HeapCap)
	}
	return h, nil
}

// DecodeCompactNode decodes one 64-byte node record.
func DecodeCompactNode(rec []byte) (box geom.AABB, first, count int32, leaf bool) {
	box = readBox(rec)
	first = int32(binary.LittleEndian.Uint32(rec[48:]))
	count = int32(binary.LittleEndian.Uint32(rec[52:]))
	leaf = rec[56] != 0
	return box, first, count, leaf
}

// DecodeCompactLeafBox decodes one 48-byte leaf box record.
func DecodeCompactLeafBox(rec []byte) geom.AABB { return readBox(rec) }

// DecodeCompactLeafID decodes one 8-byte leaf id record.
func DecodeCompactLeafID(rec []byte) int64 {
	return int64(binary.LittleEndian.Uint64(rec))
}

// ValidateCompactNode bounds- and orientation-checks one decoded node
// against the header, exported so the paged read path can verify records as
// it fetches them (a corrupted page must fail the query, not the process).
func ValidateCompactNode(h CompactHeader, i int, first, count int32, leaf bool) error {
	return validateNode(h, i, first, count, leaf)
}

// validateNode checks one node's references against the header's bounds so an
// overlaid snapshot can be traversed without index checks.
func validateNode(h CompactHeader, i int, first, count int32, leaf bool) error {
	if count < 0 || first < 0 {
		return fmt.Errorf("%w: node %d has negative extent", ErrBadSnapshot, i)
	}
	if leaf {
		if int(first)+int(count) > h.LeafCount {
			return fmt.Errorf("%w: node %d leaf run [%d,%d) of %d entries", ErrBadSnapshot, i, first, first+count, h.LeafCount)
		}
		if i < int(h.LeafStart) {
			return fmt.Errorf("%w: leaf node %d before leafStart %d", ErrBadSnapshot, i, h.LeafStart)
		}
		return nil
	}
	if int(first)+int(count) > h.NodeCount {
		return fmt.Errorf("%w: node %d child run [%d,%d) of %d nodes", ErrBadSnapshot, i, first, first+count, h.NodeCount)
	}
	if first <= int32(i) && count > 0 {
		// Children strictly follow their parent in the breadth-first slab;
		// a back reference would make traversal loop.
		return fmt.Errorf("%w: node %d references backwards to %d", ErrBadSnapshot, i, first)
	}
	if i >= int(h.LeafStart) {
		return fmt.Errorf("%w: inner node %d at/after leafStart %d", ErrBadSnapshot, i, h.LeafStart)
	}
	return nil
}
