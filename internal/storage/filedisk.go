package storage

import (
	"fmt"
	"io"
	"os"
	"sync"

	"spatialsim/internal/faultinject"
)

// Failpoint names compiled into FileDisk's I/O paths. Disarmed (the
// production state) they cost one atomic load per operation; chaos tests arm
// them to make the page file fail, stall, or tear mid-write.
const (
	// FaultFileDiskWrite instruments page writes; it supports torn-write
	// injection (a random proper prefix lands before the error surfaces —
	// the crash-mid-write shape the recovery tests must tolerate).
	FaultFileDiskWrite = "storage.filedisk.write"
	// FaultFileDiskRead instruments page reads.
	FaultFileDiskRead = "storage.filedisk.read"
	// FaultFileDiskSync instruments Sync.
	FaultFileDiskSync = "storage.filedisk.sync"
)

// BackingFile is the slice of the *os.File surface FileDisk needs. It exists
// as a seam: production opens real files, while the crash-recovery torture
// tests substitute a file that starts failing after a randomized number of
// written bytes, simulating a crash at an arbitrary write offset.
type BackingFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// FileDisk is a page-oriented view of a real file: the durable counterpart
// of the simulated Disk. Pages are written at offset id*PageSize, so the file
// layout is exactly the page-aligned image the buffer pool caches — a
// persisted epoch segment can be re-read page by page without any
// translation. All methods are safe for concurrent use.
type FileDisk struct {
	f        BackingFile
	pageSize int

	mu    sync.Mutex
	pages int
	stats DiskStats
}

// CreateFileDisk creates (truncating) the file at path and returns an empty
// FileDisk over it. pageSize <= 0 picks the 4 KB default.
func CreateFileDisk(path string, pageSize int) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return NewFileDisk(f, 0, pageSize)
}

// OpenFileDisk opens an existing page file for reading. The file size must be
// a whole number of pages (segments are written page-aligned; a short file is
// a torn write and the caller must treat it as corruption).
func OpenFileDisk(path string, pageSize int) (*FileDisk, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fd, err := NewFileDisk(readOnlyBacking{f}, st.Size(), pageSize)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fd, nil
}

// NewFileDisk wraps an already-open backing file holding size bytes. It is
// the injection seam the torture tests use; production code goes through
// CreateFileDisk / OpenFileDisk.
func NewFileDisk(f BackingFile, size int64, pageSize int) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = 4096
	}
	if size%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: file size %d is not a multiple of page size %d (torn write)", size, pageSize)
	}
	return &FileDisk{f: f, pageSize: pageSize, pages: int(size / int64(pageSize))}, nil
}

// readOnlyBacking adapts a read-only *os.File: writes fail loudly instead of
// silently corrupting a file opened for recovery.
type readOnlyBacking struct{ *os.File }

func (r readOnlyBacking) WriteAt([]byte, int64) (int, error) {
	return 0, fmt.Errorf("storage: file disk opened read-only")
}

// PageSize implements Pager.
func (d *FileDisk) PageSize() int { return d.pageSize }

// NumPages implements Pager.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Allocate implements Pager. The page materializes in the file on its first
// Write; a Read before that returns zeros (ReadAt short reads are zero-filled
// up to the allocated extent).
func (d *FileDisk) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.pages)
	d.pages++
	d.stats.PagesAllocated++
	return id
}

// Write implements Pager, placing the page at offset id*PageSize.
func (d *FileDisk) Write(id PageID, data []byte) error {
	if len(data) > d.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(data), d.pageSize)
	}
	d.mu.Lock()
	if id < 0 || int(id) >= d.pages {
		d.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	d.stats.PageWrites++
	d.stats.BytesWritten += int64(d.pageSize)
	d.mu.Unlock()

	// Full pages write straight through; only a short chunk needs
	// zero-padding to page size.
	page := data
	if len(data) < d.pageSize {
		page = make([]byte, d.pageSize)
		copy(page, data)
	}
	return d.writeAt(page, int64(id)*int64(d.pageSize))
}

// WritePages writes a run of consecutive allocated pages starting at first
// with one WriteAt — the path a snapshot streams its page-aligned image
// through. data must be a whole number of pages. The write failpoint sees
// the run as one write, so a torn injection lands a proper prefix of it.
func (d *FileDisk) WritePages(first PageID, data []byte) error {
	if len(data)%d.pageSize != 0 {
		return fmt.Errorf("storage: run of %d bytes is not a whole number of %d-byte pages", len(data), d.pageSize)
	}
	n := len(data) / d.pageSize
	d.mu.Lock()
	if first < 0 || int(first)+n > d.pages {
		d.mu.Unlock()
		return fmt.Errorf("%w: run [%d,%d)", ErrPageOutOfRange, first, int(first)+n)
	}
	d.stats.PageWrites += int64(n)
	d.stats.BytesWritten += int64(len(data))
	d.mu.Unlock()
	return d.writeAt(data, int64(first)*int64(d.pageSize))
}

// writeAt lands data at off through the write failpoint.
func (d *FileDisk) writeAt(data []byte, off int64) error {
	if n, ferr := faultinject.CheckWrite(FaultFileDiskWrite, len(data)); ferr != nil {
		if n > 0 {
			// Torn write: land the prefix, then fail — the caller sees the
			// error but the file holds partial bytes, like a crash mid-write.
			d.f.WriteAt(data[:n], off)
		}
		return ferr
	}
	_, err := d.f.WriteAt(data, off)
	return err
}

// Read implements Pager.
func (d *FileDisk) Read(id PageID) ([]byte, error) {
	d.mu.Lock()
	if id < 0 || int(id) >= d.pages {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	d.stats.PageReads++
	d.stats.BytesRead += int64(d.pageSize)
	d.mu.Unlock()

	if err := faultinject.Hit(FaultFileDiskRead); err != nil {
		return nil, err
	}
	out := make([]byte, d.pageSize)
	n, err := d.f.ReadAt(out, int64(id)*int64(d.pageSize))
	if err == io.EOF && n >= 0 {
		// Allocated but never written: the tail of the file does not exist
		// yet, and absent bytes read as zeros.
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Sync flushes written pages to stable storage.
func (d *FileDisk) Sync() error {
	if err := faultinject.Hit(FaultFileDiskSync); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close closes the backing file.
func (d *FileDisk) Close() error { return d.f.Close() }

// Stats returns a snapshot of the activity counters. SimulatedReadTime stays
// zero: FileDisk performs real I/O and models nothing.
func (d *FileDisk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
