package persist

// The one read path for segment files. Both recovery modes open a segment
// the same way — get the image, check it against the manifest record, and
// DecodeSegment it, which overlays every R-Tree shard on the image in place
// (rtree.OverlayCompact: no deserialization, no copy). They differ only in
// where the image comes from and how much of it is checksummed:
//
//   - heap (RecoverOptions.Mapped false, and mapped mode on platforms
//     without mmap): the file is read through a buffer pool onto the heap
//     and verified in full — whole-image CRC against the manifest, payload
//     CRC against the header — before any shard is opened;
//   - mapped: the file is mmap'd read-only and only the O(1) envelope is
//     checked (file size, header fields, shard directory, node slabs). A
//     checksum would fault in every page, which is exactly the O(data) cost
//     this mode removes, so payload bytes are trusted the way any
//     mmap-serving database trusts them. Recovery is O(open) regardless of
//     dataset size, and leaf pages fault in lazily as queries touch them.

import (
	"errors"
	"fmt"

	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

// OpenMappedCompact opens the R-Tree snapshot at the front of data as an
// overlay of those bytes — persist's one way a serialized blob becomes a
// queryable shard, whether data is a heap image or a mapping. Corrupt bytes
// are an error, never a fault; a misaligned blob is served from an aligned
// copy (ZeroCopy reports false).
func OpenMappedCompact(data []byte) (*rtree.Compact, int, error) {
	return rtree.OverlayCompact(data)
}

// MappedSegment is one segment file opened for serving: the image (an mmap,
// or a heap copy where mmap is unavailable), the decoded header, and the
// shard records whose R-Tree snapshots overlay the image in place. Close
// unmaps; the serving layer hooks that into epoch retirement.
//
// Lifetime contract for a live mapping: the file may be unlinked while
// mapped — segment GC does exactly that once newer snapshots supersede it,
// and the mapping keeps the inode's pages alive until Close. Truncating or
// rewriting the file in place is not safe (a reader touching a vanished
// page takes SIGBUS, which is not an error value), and nothing does it:
// segments are written once under a fresh name, synced, and only ever
// unlinked afterwards.
type MappedSegment struct {
	disk   *storage.MmapDisk // nil for a heap image
	image  []byte
	Info   SegmentInfo
	Shards []ShardRecord

	zeroCopyShards int
	closed         bool
}

// ErrSegmentClosed is returned by Close when the mapping was already
// released. A second Close means the single-owner lifecycle (one epoch
// retirement → one unmap) was violated, which a correct caller treats as a
// hard error: the first Close may have invalidated views a reader still
// holds.
var ErrSegmentClosed = errors.New("persist: mapped segment closed twice")

// ZeroCopyShards returns how many R-Tree shards alias the mapping directly
// (0 for a heap image).
func (ms *MappedSegment) ZeroCopyShards() int { return ms.zeroCopyShards }

// Mapped reports whether the segment is served from an actual mmap (false =
// heap image).
func (ms *MappedSegment) Mapped() bool { return ms.disk != nil }

// Size returns the segment image size in bytes.
func (ms *MappedSegment) Size() int64 { return int64(len(ms.image)) }

// Resident returns how many bytes of the mapping are resident in physical
// memory (0, false where the platform cannot tell) — the page-fault proxy
// the serving metrics export.
func (ms *MappedSegment) Resident() (int64, bool) {
	if ms.disk == nil {
		return int64(len(ms.image)), false
	}
	return ms.disk.Resident()
}

// Advise forwards an access-pattern hint to the kernel (no-op on a heap
// image).
func (ms *MappedSegment) Advise(a storage.Advice) error {
	if ms.disk == nil {
		return nil
	}
	return ms.disk.Advise(a)
}

// Close releases the mapping. The caller owns the ordering: no reader may
// hold a view of any shard past Close (epoch retirement guarantees this —
// an epoch is retired only after its last reader pin drops). Close is not
// idempotent by design: a second call returns ErrSegmentClosed so a
// double-retire bug surfaces as a hard error instead of a silent no-op over
// possibly-invalidated reader views.
func (ms *MappedSegment) Close() error {
	if ms.closed {
		return ErrSegmentClosed
	}
	ms.closed = true
	ms.Shards = nil
	ms.image = nil
	if ms.disk == nil {
		return nil
	}
	return ms.disk.Close()
}

// openSegment opens the segment file at path that snapshot record sr names:
// mmap'd when mapped is set and the platform supports it, read onto the heap
// through a buffer pool of poolPages otherwise (see the file comment for
// what each verifies). The header must agree with the record.
func openSegment(path string, sr SnapshotRecord, pageSize, poolPages, workers int, mapped bool) (*MappedSegment, error) {
	ms := &MappedSegment{}
	if mapped {
		md, err := storage.OpenMmapDisk(path, pageSize)
		switch {
		case err == nil:
			ms.disk, ms.image = md, md.Bytes()
			// Index descent is random access; tell the kernel not to read ahead.
			_ = md.Advise(storage.AdviceRandom)
		case !errors.Is(err, storage.ErrMmapUnsupported):
			return nil, err
		}
	}
	if ms.disk == nil {
		fd, err := storage.OpenFileDisk(path, pageSize)
		if err != nil {
			return nil, err
		}
		ms.image, err = readImage(fd, poolPages)
		fd.Close()
		if err != nil {
			return nil, err
		}
	}
	if err := ms.load(sr, workers); err != nil {
		ms.Close()
		return nil, err
	}
	return ms, nil
}

// load checks the image against the manifest record and decodes it,
// checksumming only a heap image.
func (ms *MappedSegment) load(sr SnapshotRecord, workers int) error {
	heap := ms.disk == nil
	if int64(len(ms.image)) != sr.SegSize {
		return fmt.Errorf("%w segment: %d bytes on disk, manifest says %d", ErrCorrupt, len(ms.image), sr.SegSize)
	}
	if heap {
		if crc := crc32Checksum(ms.image); crc != sr.SegCRC {
			return fmt.Errorf("%w segment: image crc %#x, manifest says %#x", ErrCorrupt, crc, sr.SegCRC)
		}
	}
	info, shards, err := DecodeSegment(ms.image, workers, heap)
	if err != nil {
		return err
	}
	if info.EpochSeq != sr.EpochSeq || info.BatchSeq != sr.BatchSeq {
		return fmt.Errorf("%w segment: header (%d,%d) disagrees with manifest (%d,%d)",
			ErrCorrupt, info.EpochSeq, info.BatchSeq, sr.EpochSeq, sr.BatchSeq)
	}
	ms.Info, ms.Shards = info, shards
	for _, sh := range shards {
		if !heap && sh.RTree != nil && sh.RTree.ZeroCopy() {
			ms.zeroCopyShards++
		}
	}
	return nil
}
