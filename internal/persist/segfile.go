package persist

// Segment file I/O. A segment is written once — one WriteAt of the whole
// encoded image and one Sync, through the Store's file seam — and read back
// whole: one read onto the heap, or one read-only mmap. The file is the
// image byte for byte, so neither direction translates anything.

import (
	"fmt"
	"io"
	"os"

	"spatialsim/internal/faultinject"
)

// Failpoint names compiled into the segment write. Disarmed (the production
// state) they cost one atomic load per save; chaos tests arm them to make a
// snapshot fail or tear mid-write.
const (
	// FaultSegmentWrite instruments the image write; it supports torn-write
	// injection (a random proper prefix lands before the error surfaces —
	// the crash-mid-write shape recovery must tolerate).
	FaultSegmentWrite = "persist.segment.write"
	// FaultSegmentSync instruments the Sync after the image write.
	FaultSegmentSync = "persist.segment.sync"
)

// BackingFile is the slice of the *os.File surface the Store writes
// through: segment images, manifest appends and manifest rotations. It
// exists as a seam: production opens real files, while the crash-recovery
// torture tests substitute a file that starts failing after a randomized
// number of written bytes, simulating a crash at an arbitrary write offset.
type BackingFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// writeAt writes data at off of f with one WriteAt, through the torn-write
// failpoint fault.
func writeAt(f BackingFile, fault string, data []byte, off int64) error {
	if n, err := faultinject.CheckWrite(fault, len(data)); err != nil {
		if n > 0 {
			// Torn write: the prefix lands, then the error surfaces — the
			// file holds partial bytes, like a crash mid-write.
			f.WriteAt(data[:n], off)
		}
		return err
	}
	_, err := f.WriteAt(data, off)
	return err
}

// writeSegment writes image at the start of f with one WriteAt and syncs
// it, through the segment failpoints.
func writeSegment(f BackingFile, image []byte) error {
	if err := writeAt(f, FaultSegmentWrite, image, 0); err != nil {
		return err
	}
	if err := faultinject.Hit(FaultSegmentSync); err != nil {
		return err
	}
	return f.Sync()
}

// MmapSupported reports whether this platform maps segment files. When
// false, mapped recovery reads each file onto the heap instead — same
// bytes, one copy, and the checksums of a heap recovery.
func MmapSupported() bool { return mmapSupported }

// segmentFile is one opened segment file: its whole image, read onto the
// heap or mapped read-only.
type segmentFile struct {
	image  []byte
	mapped bool // image is a mapping that close releases
}

// openSegmentFile opens the segment file at path: mmap'd when mapped is set
// and the platform supports it, read onto the heap in one read otherwise.
// The file must be a whole number of the pages its header declares (the
// page size it was written with, whatever the reopening Store's): segments
// are written page-aligned, so a short file is a torn write and is
// reported as ErrCorrupt, as is a file too short to hold a valid header.
func openSegmentFile(path string, mapped bool) (segmentFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return segmentFile{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segmentFile{}, err
	}
	size := st.Size()
	header := make([]byte, min(size, segmentHeaderSize))
	if _, err := f.ReadAt(header, 0); err != nil {
		return segmentFile{}, err
	}
	info, err := DecodeSegmentInfo(header, int(size))
	if err != nil {
		return segmentFile{}, err
	}
	if size%int64(info.PageSize) != 0 {
		return segmentFile{}, fmt.Errorf("%w segment: file size %d is not a multiple of page size %d (torn write)",
			ErrCorrupt, size, info.PageSize)
	}
	if mapped && mmapSupported {
		// The mapping survives closing the descriptor, and on these
		// platforms unlinking the path, which is what makes segment GC safe
		// while an older epoch still serves from it.
		data, err := mmapFile(f, int(size))
		if err != nil {
			return segmentFile{}, fmt.Errorf("persist: mmap %s: %w", path, err)
		}
		// Index descent is random access; tell the kernel not to read ahead.
		adviseRandom(data)
		return segmentFile{image: data, mapped: true}, nil
	}
	image := make([]byte, size)
	if _, err := f.ReadAt(image, 0); err != nil {
		return segmentFile{}, err
	}
	return segmentFile{image: image}, nil
}

// close releases a mapping; a heap image needs no release.
func (f segmentFile) close() error {
	if !f.mapped {
		return nil
	}
	return munmapFile(f.image)
}
