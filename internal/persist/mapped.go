package persist

// The one read path for segment files. Both recovery modes open a snapshot
// the same way — get the image of its segment, check it against the
// manifest record, DecodeSegment it, which overlays every R-Tree shard on
// the image in place (rtree.OverlayCompact: no deserialization, no copy),
// then open each older segment its reference records point into and
// overlay the referenced records the same way. They differ only in where
// the images come from (openSegmentFile) and how much of them is
// checksummed:
//
//   - heap (RecoverOptions.Mapped false, and mapped mode on platforms
//     without mmap): each file is read onto the heap in one read. The
//     snapshot's own image is verified in full — whole-image CRC against
//     the manifest, payload CRC against the header — and every referenced
//     record against the CRC its reference carries, before any shard is
//     opened;
//   - mapped: each file is mmap'd read-only and only the O(1) envelope is
//     checked (file size, header fields, shard directory, reference bounds,
//     node slabs). A checksum would fault in every page, which is exactly
//     the O(data) cost this mode removes, so payload bytes are trusted the
//     way any mmap-serving database trusts them. Recovery is O(open)
//     regardless of dataset size, and leaf pages fault in lazily as queries
//     touch them.

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"spatialsim/internal/par"
	"spatialsim/internal/rtree"
)

// OpenMappedCompact opens the R-Tree snapshot at the front of data as an
// overlay of those bytes — persist's one way a serialized blob becomes a
// queryable shard, whether data is a heap image or a mapping. Corrupt bytes
// are an error, never a fault; a misaligned blob is served from an aligned
// copy (ZeroCopy reports false).
func OpenMappedCompact(data []byte) (*rtree.Compact, int, error) {
	return rtree.OverlayCompact(data)
}

// MappedSegment is one snapshot opened for serving: the image of its own
// segment file and of every older segment file its references resolve into
// (mmaps, or heap copies where mmap is unavailable), the decoded header of
// its own segment, and the shard records whose R-Tree snapshots overlay
// those images in place. Close unmaps them all; the serving layer hooks
// that into epoch retirement.
//
// Lifetime contract for a live mapping: the files may be unlinked while
// mapped — segment GC does exactly that once newer snapshots supersede them,
// and each mapping keeps its inode's pages alive until Close. Truncating or
// rewriting a file in place is not safe (a reader touching a vanished page
// takes SIGBUS, which is not an error value), and nothing does it: segments
// are written once under a fresh name, synced, and only ever unlinked
// afterwards, and a save never references the file it writes.
type MappedSegment struct {
	files  []segmentFile // the snapshot's own segment first
	Info   SegmentInfo
	Shards []ShardRecord

	// Fixed once the snapshot is open: the serving metrics read them while
	// the retire hook may be closing the files.
	nfiles         int
	size           int64
	mapped         bool
	zeroCopyShards int

	mu     sync.Mutex // orders Close against Resident
	closed bool
}

// ErrSegmentClosed is returned by Close when the mapping was already
// released. A second Close means the single-owner lifecycle (one epoch
// retirement → one unmap) was violated, which a correct caller treats as a
// hard error: the first Close may have invalidated views a reader still
// holds.
var ErrSegmentClosed = errors.New("persist: mapped segment closed twice")

// ZeroCopyShards returns how many R-Tree shards alias a mapping directly
// (0 for heap images).
func (ms *MappedSegment) ZeroCopyShards() int { return ms.zeroCopyShards }

// Mapped reports whether the segments are served from actual mmaps (false =
// heap images).
func (ms *MappedSegment) Mapped() bool { return ms.mapped }

// Files returns how many segment files the snapshot spans.
func (ms *MappedSegment) Files() int { return ms.nfiles }

// Size returns the total image size in bytes of the segment files.
func (ms *MappedSegment) Size() int64 { return ms.size }

// Resident returns how many bytes of the mappings are resident in physical
// memory (0, false where the platform cannot tell, and once closed) — the
// page-fault proxy the serving metrics export.
func (ms *MappedSegment) Resident() (int64, bool) {
	if !ms.mapped {
		return ms.size, false
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed {
		return 0, false
	}
	var total int64
	for _, f := range ms.files {
		n, ok := residentBytes(f.image)
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// Close releases every mapping. The caller owns the ordering: no reader may
// hold a view of any shard past Close (epoch retirement guarantees this —
// an epoch is retired only after its last reader pin drops). Close is not
// idempotent by design: a second call returns ErrSegmentClosed so a
// double-retire bug surfaces as a hard error instead of a silent no-op over
// possibly-invalidated reader views.
func (ms *MappedSegment) Close() error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed {
		return ErrSegmentClosed
	}
	ms.closed = true
	ms.Shards = nil
	var first error
	for _, f := range ms.files {
		if err := f.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openSegment opens the snapshot that record sr names, whose segment file is
// at path: mmap'd when mapped is set and the platform supports it, read onto
// the heap otherwise (see the file comment for what each verifies). The
// header must agree with the record, and every reference must point into a
// segment sr.Refs lists, found in the same directory.
func openSegment(path string, sr SnapshotRecord, pageSize, workers int, mapped bool) (*MappedSegment, error) {
	ms := &MappedSegment{}
	f, err := openSegmentFile(path, pageSize, mapped)
	if err == nil {
		ms.files = append(ms.files, f)
		err = ms.load(filepath.Dir(path), sr, pageSize, workers, mapped)
	}
	if err != nil {
		ms.Close()
		return nil, err
	}
	ms.nfiles = len(ms.files)
	for _, f := range ms.files {
		ms.size += int64(len(f.image))
	}
	return ms, nil
}

// load checks the snapshot's own image against the manifest record and
// decodes it, checksumming only a heap image, then resolves its references.
func (ms *MappedSegment) load(dir string, sr SnapshotRecord, pageSize, workers int, mapped bool) error {
	own := ms.files[0]
	heap := !own.mapped
	if int64(len(own.image)) != sr.SegSize {
		return fmt.Errorf("%w segment: %d bytes on disk, manifest says %d", ErrCorrupt, len(own.image), sr.SegSize)
	}
	if heap {
		if crc := crc32Checksum(own.image); crc != sr.SegCRC {
			return fmt.Errorf("%w segment: image crc %#x, manifest says %#x", ErrCorrupt, crc, sr.SegCRC)
		}
	}
	info, shards, err := DecodeSegment(own.image, workers, heap)
	if err != nil {
		return err
	}
	if info.EpochSeq != sr.EpochSeq || info.BatchSeq != sr.BatchSeq {
		return fmt.Errorf("%w segment: header (%d,%d) disagrees with manifest (%d,%d)",
			ErrCorrupt, info.EpochSeq, info.BatchSeq, sr.EpochSeq, sr.BatchSeq)
	}
	if err := ms.resolve(dir, sr, shards, pageSize, workers, mapped); err != nil {
		return err
	}
	ms.Info, ms.Shards, ms.mapped = info, shards, !heap
	for _, sh := range shards {
		if ms.mapped && sh.RTree != nil && sh.RTree.ZeroCopy() {
			ms.zeroCopyShards++
		}
	}
	return nil
}

// resolve replaces every reference record in shards with the record it
// names, opening each referenced segment once. A heap image is trusted per
// record: the reference's CRC covers every byte served from it.
func (ms *MappedSegment) resolve(dir string, sr SnapshotRecord, shards []ShardRecord, pageSize, workers int, mapped bool) error {
	type target struct {
		file int
		info SegmentInfo
	}
	targets := make(map[uint64]target)
	for i := range shards {
		ref := shards[i].Ref
		if ref == nil {
			continue
		}
		if _, ok := targets[ref.Segment]; ok {
			continue
		}
		if !slices.Contains(sr.Refs, ref.Segment) || ref.Segment >= sr.EpochSeq {
			return fmt.Errorf("%w segment: shard %d references segment %d, which the snapshot does not list",
				ErrCorrupt, i, ref.Segment)
		}
		f, err := openSegmentFile(filepath.Join(dir, segmentName(ref.Segment)), pageSize, mapped)
		if err != nil {
			return fmt.Errorf("referenced segment %d: %w", ref.Segment, err)
		}
		ms.files = append(ms.files, f)
		info, err := DecodeSegmentInfo(f.image, len(f.image))
		if err == nil && info.EpochSeq != ref.Segment {
			err = fmt.Errorf("%w segment: header says epoch %d", ErrCorrupt, info.EpochSeq)
		}
		if err != nil {
			return fmt.Errorf("referenced segment %d: %w", ref.Segment, err)
		}
		targets[ref.Segment] = target{file: len(ms.files) - 1, info: info}
	}
	if len(targets) == 0 {
		return nil
	}
	errs := make([]error, len(shards))
	par.ForTasks(len(shards), workers, func(_, i int) {
		ref := shards[i].Ref
		if ref == nil {
			return
		}
		tg := targets[ref.Segment]
		f := ms.files[tg.file]
		rec, err := resolveRef(f.image, tg.info, *ref, !f.mapped)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		rec.Bounds = shards[i].Bounds
		shards[i] = rec
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
