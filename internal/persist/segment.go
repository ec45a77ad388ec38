package persist

// Epoch segment files. A segment is the durable image of one published
// serving epoch: a fixed header page followed by one record per shard,
// padded to a whole number of pages. The file is the image byte for byte:
// segfile.go writes it with one write and reads it back with one read or
// one mmap. Each shard's R-Tree Compact is transcribed natively (the slab
// is offset-based and therefore serializable as-is). A shard whose image
// an older segment already holds is a reference record instead: it names
// that segment, the record's offset and length in it, and the record's
// checksum, so a save writes only the images that changed (see
// Store.SaveEpoch). Recover overlays the R-Tree snapshots on the segment
// images in place, whether read onto the heap or mmap'd.
//
// Segment layout (little-endian):
//
//	header page:
//	  [0:4)   magic "SEG1"
//	  [4:8)   format version (3)
//	  [8:16)  epoch sequence
//	  [16:24) covered batch sequence (WAL records <= this are in the epoch)
//	  [24:28) shard count
//	  [28:32) page size
//	  [32:40) payload length in bytes
//	  [40:44) CRC-32C of the payload
//	payload (from page 1), per shard, starting 8-byte aligned:
//	  kind u8 | pad 7 B | bounds 48 B | blob length u64 | blob | pad to 8 B
//	  kind 1: blob = rtree.Compact binary form
//	  kind 3: blob = segment epoch u64 | record offset u64 |
//	          record length u64 | record CRC-32C u32
//	          (a reference: the kind 1 record at that byte offset of that
//	          older segment, header through blob, is this shard)
//	  kind 2 (an item list, for shard families the store no longer serves)
//	  is retired: a decoder refuses it like any unknown kind.
//
// The padding exists for the overlay: the payload begins on a page boundary
// and every field group is padded so each blob starts 8-byte aligned in the
// file image. A heap image and an mmap of the segment are both at least
// 8-byte aligned, so the R-Tree node slab inside each blob lands 8-byte
// aligned in memory — the precondition for rtree.OverlayCompact to point its
// slices straight into the image.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"spatialsim/internal/geom"
	"spatialsim/internal/par"
	"spatialsim/internal/rtree"
)

const (
	segmentMagic = 0x31474553 // "SEG1"
	// segmentVersion is the one record layout: aligned shard records, some
	// of which may reference older segments.
	segmentVersion = 3
	// segmentHeaderSize is the used prefix of the header page.
	segmentHeaderSize = 44
	// maxPageSize bounds the page size a decoder will accept.
	maxPageSize = 1 << 24
	// maxSegmentShards bounds the shard count a decoder will accept.
	maxSegmentShards = 1 << 20

	shardKindRTree = 1
	shardKindRef   = 3

	// refBlobSize is the blob length of a reference record.
	refBlobSize = 8 + 8 + 8 + 4
)

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// ErrCorrupt is wrapped by every segment/manifest decode failure: the bytes
// on disk do not form a complete, checksummed record.
var ErrCorrupt = errors.New("persist: corrupt")

// ShardRecord is the durable form of one epoch shard. RTree carries its
// natively-serialized compact image (on recovery, an overlay of the segment
// image that serves directly); the encoders require it. Ref is set only on
// a reference record as DecodeSegment returns it, with RTree nil — recovery
// resolves every reference into the record it names. The encoders ignore
// Ref: whether a shard is written as a reference is Store.SaveEpoch's
// decision, not the caller's.
type ShardRecord struct {
	Bounds geom.AABB
	RTree  *rtree.Compact
	Ref    *ShardRef
}

// ShardRef locates a shard record inside a segment file: the segment's
// epoch sequence (its file name), the record's byte offset in the file, its
// length from the kind byte through the end of the blob, and the CRC-32C of
// those bytes.
type ShardRef struct {
	Segment uint64
	Offset  int64
	Length  int64
	CRC     uint32
}

// span is the payload bytes the record occupies, alignment pad included.
func (r ShardRef) span() int64 { return int64(align8(int(r.Length))) }

// Len returns the number of items the shard holds (0 for an unresolved
// reference).
func (sr ShardRecord) Len() int {
	if sr.RTree != nil {
		return sr.RTree.Len()
	}
	return 0
}

// SegmentInfo is the decoded header of a segment.
type SegmentInfo struct {
	Version    int
	EpochSeq   uint64
	BatchSeq   uint64
	ShardCount int
	PageSize   int
	PayloadLen int
	PayloadCRC uint32
}

// EncodeSegment builds the complete page-aligned segment image for one
// epoch. The image length is a multiple of pageSize. Records are written in
// the aligned layout (see the package comment): each record starts on an
// 8-byte boundary with the blob at record offset 64, so blobs are 8-byte
// aligned within the page-aligned image and a reader can overlay them in
// place. The image is sized once and every record is encoded straight into
// it: no buffer grows and no payload is copied.
func EncodeSegment(epochSeq, batchSeq uint64, shards []ShardRecord, pageSize int) []byte {
	image, _ := encodeSegment(epochSeq, batchSeq, shards, nil, pageSize)
	return image
}

// encodeSegment is EncodeSegment that writes shard i as a reference record
// where refs[i] is set (refs may be nil), and reports where each shard's
// bytes now live: for a record written in full, a reference to it in this
// segment; for a reference record, the reference itself.
func encodeSegment(epochSeq, batchSeq uint64, shards []ShardRecord, refs []*ShardRef, pageSize int) ([]byte, []ShardRef) {
	if pageSize <= 0 {
		pageSize = 4096
	}
	refAt := func(i int) *ShardRef {
		if refs == nil {
			return nil
		}
		return refs[i]
	}
	payloadLen := 0
	for i, sr := range shards {
		payloadLen += shardRecordHeaderSize + align8(shardBlobSize(sr, refAt(i)))
	}
	total := pageSize + payloadLen
	if rem := total % pageSize; rem != 0 {
		total += pageSize - rem
	}
	image := make([]byte, total)
	payload := image[pageSize : pageSize+payloadLen]
	locs := make([]ShardRef, len(shards))

	off := 0
	for i, sr := range shards {
		ref := refAt(i)
		blobLen := shardBlobSize(sr, ref)
		kind := byte(shardKindRTree)
		if ref != nil {
			kind = shardKindRef
		}
		// Each append below writes in place: the destination is a
		// zero-length window of the image with room for exactly the record.
		start := off
		rec := payload[off : off : off+shardRecordHeaderSize]
		rec = append(rec, kind, 0, 0, 0, 0, 0, 0, 0)
		rec = appendBox(rec, sr.Bounds)
		appendU64(rec, uint64(blobLen))
		off += shardRecordHeaderSize
		blob := payload[off : off : off+blobLen]
		if ref != nil {
			blob = appendU64(blob, ref.Segment)
			blob = appendU64(blob, uint64(ref.Offset))
			blob = appendU64(blob, uint64(ref.Length))
			appendU32(blob, ref.CRC)
		} else {
			sr.RTree.AppendBinary(blob)
		}
		off += blobLen
		if ref != nil {
			locs[i] = *ref
		} else {
			locs[i] = ShardRef{
				Segment: epochSeq,
				Offset:  int64(pageSize + start),
				Length:  int64(off - start),
				CRC:     crc32Checksum(payload[start:off]),
			}
		}
		off = start + shardRecordHeaderSize + align8(blobLen) // the pad bytes are already zero
	}

	header := image[:0:segmentHeaderSize]
	header = appendU32(header, segmentMagic)
	header = appendU32(header, segmentVersion)
	header = appendU64(header, epochSeq)
	header = appendU64(header, batchSeq)
	header = appendU32(header, uint32(len(shards)))
	header = appendU32(header, uint32(pageSize))
	header = appendU64(header, uint64(payloadLen))
	appendU32(header, crc32.Checksum(payload, castagnoli))
	return image, locs
}

// payloadLen reads the payload length from an image encodeSegment built.
func payloadLen(image []byte) int64 { return int64(binary.LittleEndian.Uint64(image[32:40])) }

// shardRecordHeaderSize is the fixed prefix of a shard record: kind, pad,
// bounds and blob length.
const shardRecordHeaderSize = 8 + boxWireSize + 8

// shardBlobSize is the encoded blob length of one shard record, written as
// a reference when ref is set.
func shardBlobSize(sr ShardRecord, ref *ShardRef) int {
	if ref != nil {
		return refBlobSize
	}
	return sr.RTree.BinarySize()
}

// DecodeSegmentInfo validates and decodes a segment header from the first
// page of an image. avail is the total image size on disk; the declared
// payload must fit inside it.
func DecodeSegmentInfo(data []byte, avail int) (SegmentInfo, error) {
	var info SegmentInfo
	if len(data) < segmentHeaderSize {
		return info, fmt.Errorf("%w segment: %d header bytes", ErrCorrupt, len(data))
	}
	r := &byteReader{data: data}
	if m := r.u32(); m != segmentMagic {
		return info, fmt.Errorf("%w segment: magic %#x", ErrCorrupt, m)
	}
	v := r.u32()
	if v != segmentVersion {
		return info, fmt.Errorf("%w segment: version %d, this build reads only version %d", ErrCorrupt, v, segmentVersion)
	}
	info.Version = int(v)
	info.EpochSeq = r.u64()
	info.BatchSeq = r.u64()
	info.ShardCount = int(r.u32())
	info.PageSize = int(r.u32())
	info.PayloadLen = int(int64(r.u64()))
	info.PayloadCRC = r.u32()
	if !r.ok() {
		return info, fmt.Errorf("%w segment: short header", ErrCorrupt)
	}
	if info.PageSize < segmentHeaderSize || info.PageSize > maxPageSize {
		return info, fmt.Errorf("%w segment: page size %d", ErrCorrupt, info.PageSize)
	}
	if info.ShardCount < 0 || info.ShardCount > maxSegmentShards {
		return info, fmt.Errorf("%w segment: %d shards", ErrCorrupt, info.ShardCount)
	}
	if info.PayloadLen < 0 || int64(info.PageSize)+int64(info.PayloadLen) > int64(avail) {
		return info, fmt.Errorf("%w segment: payload %d bytes, file %d", ErrCorrupt, info.PayloadLen, avail)
	}
	return info, nil
}

// rawShard is one undecoded entry of a segment's shard directory: the kind
// byte, the shard bounds, and the blob bytes still aliasing the image.
type rawShard struct {
	kind   byte
	bounds geom.AABB
	blob   []byte
}

// segmentDirectory splits a payload into its raw shard entries without
// decoding any blob, skipping the alignment padding around each record.
func segmentDirectory(info SegmentInfo, payload []byte) ([]rawShard, error) {
	// Pre-size from the payload, not the header: a crafted shard count must
	// not translate into an allocation (a record is at least 64 bytes).
	sizeHint := info.ShardCount
	if maxFit := len(payload)/64 + 1; sizeHint > maxFit {
		sizeHint = maxFit
	}
	raw := make([]rawShard, 0, sizeHint)
	r := &byteReader{data: payload}
	for i := 0; i < info.ShardCount; i++ {
		kind := r.u8()
		r.bytes(7) // alignment pad after the kind byte
		bounds := r.box()
		blobLen := r.u64()
		if !r.ensure(0) || blobLen > uint64(r.remaining()) {
			return nil, fmt.Errorf("%w segment: shard %d blob overruns payload", ErrCorrupt, i)
		}
		blob := r.bytes(int(blobLen))
		if tail := align8(int(blobLen)) - int(blobLen); tail > 0 && !r.ensure(tail) {
			return nil, fmt.Errorf("%w segment: shard %d missing alignment pad", ErrCorrupt, i)
		} else if tail > 0 {
			r.bytes(tail)
		}
		raw = append(raw, rawShard{kind: kind, bounds: bounds, blob: blob})
	}
	if !r.ok() {
		return nil, fmt.Errorf("%w segment: truncated shard directory", ErrCorrupt)
	}
	return raw, nil
}

// DecodeSegment decodes a segment image (header page + payload) into its
// shard records, using up to workers goroutines (<= 0 uses GOMAXPROCS).
// R-Tree blobs become overlays of image (OpenMappedCompact) — image must
// stay immutable and alive while they serve — and reference records come
// back unresolved (ShardRecord.Ref). verifyCRC checks the payload checksum
// before any blob is touched. Recovery from a heap image sets it; the
// mapped open does not (a checksum would fault in every page, the O(data)
// cost mapping exists to avoid) and relies on structural validation, which
// still rejects any blob that could make a query fault.
func DecodeSegment(image []byte, workers int, verifyCRC bool) (SegmentInfo, []ShardRecord, error) {
	info, err := DecodeSegmentInfo(image, len(image))
	if err != nil {
		return info, nil, err
	}
	payload := image[info.PageSize : info.PageSize+info.PayloadLen]
	if verifyCRC {
		if crc := crc32Checksum(payload); crc != info.PayloadCRC {
			return info, nil, fmt.Errorf("%w segment: payload crc %#x, want %#x", ErrCorrupt, crc, info.PayloadCRC)
		}
	}

	raw, err := segmentDirectory(info, payload)
	if err != nil {
		return info, nil, err
	}

	// Second pass: open blobs in parallel (an overlay validates its node
	// slab).
	shards := make([]ShardRecord, len(raw))
	errs := make([]error, len(raw))
	par.ForTasks(len(raw), workers, func(_, i int) {
		shards[i], errs[i] = openRecord(raw[i])
		if errs[i] != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, errs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return info, nil, err
		}
	}
	return info, shards, nil
}

// openRecord opens one shard record's blob according to its kind.
func openRecord(rs rawShard) (ShardRecord, error) {
	switch rs.kind {
	case shardKindRTree:
		c, n, err := OpenMappedCompact(rs.blob)
		if err == nil && n != len(rs.blob) {
			err = fmt.Errorf("%w segment: %d trailing bytes after the R-Tree", ErrCorrupt, len(rs.blob)-n)
		}
		if err != nil {
			return ShardRecord{}, err
		}
		return ShardRecord{Bounds: rs.bounds, RTree: c}, nil
	case shardKindRef:
		if len(rs.blob) != refBlobSize {
			return ShardRecord{}, fmt.Errorf("%w segment: %d-byte reference", ErrCorrupt, len(rs.blob))
		}
		br := &byteReader{data: rs.blob}
		ref := &ShardRef{Segment: br.u64(), Offset: int64(br.u64()), Length: int64(br.u64()), CRC: br.u32()}
		return ShardRecord{Bounds: rs.bounds, Ref: ref}, nil
	}
	return ShardRecord{}, fmt.Errorf("%w segment: kind %d", ErrCorrupt, rs.kind)
}

// resolveRef opens the record ref names inside image, the segment file ref
// points into (info is its decoded header). The record must lie inside the
// payload and must not itself be a reference; verifyCRC checks the
// record's bytes against ref's checksum, which is how heap recovery
// verifies every byte it serves from a segment it does not checksum whole.
func resolveRef(image []byte, info SegmentInfo, ref ShardRef, verifyCRC bool) (ShardRecord, error) {
	end := int64(info.PageSize) + int64(info.PayloadLen)
	if ref.Offset < int64(info.PageSize) || ref.Offset%8 != 0 ||
		ref.Length < shardRecordHeaderSize || ref.Length > end-ref.Offset {
		return ShardRecord{}, fmt.Errorf("%w segment: reference [%d,+%d) outside segment %d's payload",
			ErrCorrupt, ref.Offset, ref.Length, ref.Segment)
	}
	rec := image[ref.Offset : ref.Offset+ref.Length]
	if verifyCRC {
		if crc := crc32Checksum(rec); crc != ref.CRC {
			return ShardRecord{}, fmt.Errorf("%w segment: record crc %#x in segment %d, reference says %#x",
				ErrCorrupt, crc, ref.Segment, ref.CRC)
		}
	}
	r := &byteReader{data: rec}
	kind := r.u8()
	r.bytes(7)
	bounds := r.box()
	blobLen := r.u64()
	if kind == shardKindRef {
		return ShardRecord{}, fmt.Errorf("%w segment: reference into segment %d names another reference", ErrCorrupt, ref.Segment)
	}
	if blobLen != uint64(r.remaining()) {
		return ShardRecord{}, fmt.Errorf("%w segment: referenced record declares a %d-byte blob in %d bytes",
			ErrCorrupt, blobLen, r.remaining())
	}
	return openRecord(rawShard{kind: kind, bounds: bounds, blob: rec[shardRecordHeaderSize:]})
}
