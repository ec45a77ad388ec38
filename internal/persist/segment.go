package persist

// Epoch segment files. A segment is the durable image of one published
// serving epoch: a fixed header page followed by the concatenated shard
// blobs, padded to a whole number of pages so the file maps 1:1 onto the
// storage layer's page devices. Shards whose snapshot is an R-Tree Compact
// are transcribed natively (the slab is offset-based and therefore
// serializable as-is); every other snapshot family falls back to its item
// list, rebuilt by the owning shard builder at recovery. One format, two
// read paths: Recover overlays the R-Tree snapshots on the segment image
// (read onto the heap or mmap'd), PagedCompact queries the same bytes page
// by page through a buffer pool.
//
// Segment layout (little-endian):
//
//	header page:
//	  [0:4)   magic "SEG1"
//	  [4:8)   format version (2)
//	  [8:16)  epoch sequence
//	  [16:24) covered batch sequence (WAL records <= this are in the epoch)
//	  [24:28) shard count
//	  [28:32) page size
//	  [32:40) payload length in bytes
//	  [40:44) CRC-32C of the payload
//	payload (from page 1), per shard, starting 8-byte aligned:
//	  kind u8 | pad 7 B | bounds 48 B | blob length u64 | blob | pad to 8 B
//	  kind 1: blob = rtree.Compact binary form
//	  kind 2: blob = item count u32 | items (id i64 + box 48 B)
//
// The padding exists for the overlay: the payload begins on a page boundary
// and every field group is padded so each blob starts 8-byte aligned in the
// file image. A heap image and an mmap of the segment are both at least
// 8-byte aligned, so the R-Tree node slab inside each blob lands 8-byte
// aligned in memory — the precondition for rtree.OverlayCompact to point its
// slices straight into the image.

import (
	"errors"
	"fmt"
	"hash/crc32"

	"spatialsim/internal/exec"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

const (
	segmentMagic = 0x31474553 // "SEG1"
	// segmentVersion is the one record layout: aligned shard records.
	segmentVersion = 2
	// segmentHeaderSize is the used prefix of the header page.
	segmentHeaderSize = 44
	// maxSegmentShards bounds the shard count a decoder will accept.
	maxSegmentShards = 1 << 20

	shardKindRTree = 1
	shardKindItems = 2
)

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// ErrCorrupt is wrapped by every segment/manifest decode failure: the bytes
// on disk do not form a complete, checksummed record.
var ErrCorrupt = errors.New("persist: corrupt")

// ShardRecord is the durable form of one epoch shard. Exactly one of RTree
// and Items is set: RTree carries a natively-serialized compact snapshot
// (on recovery, an overlay of the segment image that serves directly);
// Items carries the fallback item list that recovery rebuilds through the
// serving layer's shard builder.
type ShardRecord struct {
	Bounds geom.AABB
	RTree  *rtree.Compact
	Items  []index.Item
}

// Len returns the number of items the shard holds.
func (sr ShardRecord) Len() int {
	if sr.RTree != nil {
		return sr.RTree.Len()
	}
	return len(sr.Items)
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
// place.
func EncodeSegment(epochSeq, batchSeq uint64, shards []ShardRecord, pageSize int) []byte {
	if pageSize <= 0 {
		pageSize = 4096
	}
	var pad [8]byte
	payload := make([]byte, 0, 4096)
	for _, sr := range shards {
		if rt := sr.RTree; rt != nil {
			payload = append(payload, shardKindRTree)
			payload = append(payload, pad[:7]...)
			payload = appendBox(payload, sr.Bounds)
			payload = appendU64(payload, uint64(rt.BinarySize()))
			payload = rt.AppendBinary(payload)
			payload = append(payload, pad[:align8(len(payload))-len(payload)]...)
			continue
		}
		payload = append(payload, shardKindItems)
		payload = append(payload, pad[:7]...)
		payload = appendBox(payload, sr.Bounds)
		payload = appendU64(payload, uint64(4+len(sr.Items)*itemWireSize))
		payload = appendU32(payload, uint32(len(sr.Items)))
		for _, it := range sr.Items {
			payload = appendItem(payload, it)
		}
		payload = append(payload, pad[:align8(len(payload))-len(payload)]...)
	}

	header := make([]byte, 0, segmentHeaderSize)
	header = appendU32(header, segmentMagic)
	header = appendU32(header, segmentVersion)
	header = appendU64(header, epochSeq)
	header = appendU64(header, batchSeq)
	header = appendU32(header, uint32(len(shards)))
	header = appendU32(header, uint32(pageSize))
	header = appendU64(header, uint64(len(payload)))
	header = appendU32(header, crc32.Checksum(payload, castagnoli))

	total := pageSize + len(payload)
	if rem := total % pageSize; rem != 0 {
		total += pageSize - rem
	}
	image := make([]byte, total)
	copy(image, header)
	copy(image[pageSize:], payload)
	return image
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
		return info, fmt.Errorf("%w segment: version %d", ErrCorrupt, v)
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
	if info.PageSize < segmentHeaderSize || info.PageSize > 1<<24 {
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
// shard records, using up to workers goroutines. R-Tree blobs become
// overlays of image (OpenMappedCompact) — image must stay immutable and
// alive while they serve — and item-list blobs are copied out. verifyCRC
// checks the payload checksum before any blob is touched. Recovery from a
// heap image sets it; the mapped open does not (a checksum would fault in
// every page, the O(data) cost mapping exists to avoid) and relies on
// structural validation, which still rejects any blob that could make a
// query fault.
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
	// slab; an item list is an O(items) copy).
	shards := make([]ShardRecord, len(raw))
	errs := make([]error, len(raw))
	exec.ForTasks(len(raw), workers, func(_, i int) {
		rs := raw[i]
		switch rs.kind {
		case shardKindRTree:
			c, n, err := OpenMappedCompact(rs.blob)
			if err == nil && n != len(rs.blob) {
				err = fmt.Errorf("%w segment: shard %d has %d trailing bytes", ErrCorrupt, i, len(rs.blob)-n)
			}
			if err != nil {
				errs[i] = err
				return
			}
			shards[i] = ShardRecord{Bounds: rs.bounds, RTree: c}
		case shardKindItems:
			br := &byteReader{data: rs.blob}
			count := int(br.u32())
			if count < 0 || count*itemWireSize != br.remaining() {
				errs[i] = fmt.Errorf("%w segment: shard %d declares %d items in %d bytes", ErrCorrupt, i, count, len(rs.blob))
				return
			}
			items := make([]index.Item, count)
			for j := range items {
				items[j] = br.item()
			}
			shards[i] = ShardRecord{Bounds: rs.bounds, Items: items}
		default:
			errs[i] = fmt.Errorf("%w segment: shard %d kind %d", ErrCorrupt, i, rs.kind)
		}
	})
	for _, err := range errs {
		if err != nil {
			return info, nil, err
		}
	}
	return info, shards, nil
}

// writeImage writes a page-aligned image through a page device and syncs it.
func writeImage(fd *storage.FileDisk, image []byte) error {
	ps := fd.PageSize()
	if len(image)%ps != 0 {
		return fmt.Errorf("persist: image size %d is not page-aligned to %d", len(image), ps)
	}
	for off := 0; off < len(image); off += ps {
		id := fd.Allocate()
		if err := fd.Write(id, image[off:off+ps]); err != nil {
			return err
		}
	}
	return fd.Sync()
}

// readImage reads every allocated page of a page device back into one
// contiguous image through a buffer pool — the segment load is buffer-pool
// traffic like any other read of the storage layer.
func readImage(pager storage.Pager, poolPages int) ([]byte, error) {
	pool := storage.NewBufferPool(pager, poolPages)
	ps := pager.PageSize()
	n := pager.NumPages()
	image := make([]byte, 0, n*ps)
	for i := 0; i < n; i++ {
		page, err := pool.Get(storage.PageID(i))
		if err != nil {
			return nil, err
		}
		image = append(image, page...)
	}
	return image, nil
}
