// Package storage simulates the disk subsystem the paper's Figure 2
// experiment runs on: a page-oriented block device with a configurable
// latency model and an LRU buffer pool.
//
// The substitution is deliberate (experiment E1 in the internal/experiments
// index): the paper uses a physical
// SAS disk array with a cold OS cache, and only relies on the qualitative
// property that random page reads cost milliseconds while in-memory
// computation costs nanoseconds. The simulated disk accumulates *virtual*
// I/O time according to the latency model instead of sleeping, which keeps
// the experiment fast and deterministic while preserving the cost shape.
//
// Two real-file pagers share the same Pager contract: FileDisk (pread into
// caller buffers, used by the durable store's write and verify paths) and
// MmapDisk (a read-only memory mapping whose page views are zero-copy
// slices of the mapped region — the serving layer's mapped recovery path).
// The sharded BufferPool sits above either, pinning pages for callers that
// hold views and passing mapped views through without caching or copying.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// PageID identifies a page on the simulated disk.
type PageID int64

// InvalidPage is the zero value sentinel for "no page".
const InvalidPage PageID = -1

// DiskConfig configures the latency model of the simulated disk.
type DiskConfig struct {
	// PageSize is the size of one page in bytes (default 4096, the paper's
	// node/page size).
	PageSize int
	// SeekLatency is charged for every page read (head seek + rotational
	// delay for a random read on spinning media). Default 5 ms.
	SeekLatency time.Duration
	// TransferRate is the sequential transfer rate in bytes per second used
	// to charge transfer time per page. Default 150 MB/s.
	TransferRate float64
}

// DefaultDiskConfig returns the configuration used by the Figure 2
// experiment: 4 KB pages on a 7200 rpm-class disk.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{
		PageSize:     4096,
		SeekLatency:  5 * time.Millisecond,
		TransferRate: 150 * 1024 * 1024,
	}
}

func (c DiskConfig) withDefaults() DiskConfig {
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.SeekLatency <= 0 {
		c.SeekLatency = 5 * time.Millisecond
	}
	if c.TransferRate <= 0 {
		c.TransferRate = 150 * 1024 * 1024
	}
	return c
}

// PageReadCost returns the simulated cost of reading one page.
func (c DiskConfig) PageReadCost() time.Duration {
	c = c.withDefaults()
	transfer := time.Duration(float64(c.PageSize) / c.TransferRate * float64(time.Second))
	return c.SeekLatency + transfer
}

// DiskStats reports the cumulative activity of a Disk.
type DiskStats struct {
	PagesAllocated int64
	PageReads      int64
	PageWrites     int64
	BytesRead      int64
	BytesWritten   int64
	// SimulatedReadTime is the total virtual time charged for reads.
	SimulatedReadTime time.Duration
}

// Disk is an in-memory simulation of a page-oriented block device. All
// methods are safe for concurrent use.
type Disk struct {
	cfg DiskConfig

	mu    sync.Mutex
	pages [][]byte
	stats DiskStats
}

// NewDisk returns an empty simulated disk.
func NewDisk(cfg DiskConfig) *Disk {
	return &Disk{cfg: cfg.withDefaults()}
}

// Config returns the disk's configuration (with defaults applied).
func (d *Disk) Config() DiskConfig { return d.cfg }

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.cfg.PageSize }

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Allocate reserves a new zeroed page and returns its id.
func (d *Disk) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, d.cfg.PageSize))
	d.stats.PagesAllocated++
	return id
}

var (
	// ErrPageOutOfRange is returned for reads/writes of unallocated pages.
	ErrPageOutOfRange = errors.New("storage: page id out of range")
	// ErrPageTooLarge is returned when writing more than a page of data.
	ErrPageTooLarge = errors.New("storage: data exceeds page size")
)

// Write stores data into the page. Data shorter than the page size leaves the
// remainder zeroed.
func (d *Disk) Write(id PageID, data []byte) error {
	if len(data) > d.cfg.PageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(data), d.cfg.PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	copy(d.pages[id], data)
	for i := len(data); i < d.cfg.PageSize; i++ {
		d.pages[id][i] = 0
	}
	d.stats.PageWrites++
	d.stats.BytesWritten += int64(d.cfg.PageSize)
	return nil
}

// Read returns a copy of the page contents and charges the simulated read
// latency.
func (d *Disk) Read(id PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 0 || int(id) >= len(d.pages) {
		return nil, fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	d.stats.PageReads++
	d.stats.BytesRead += int64(d.cfg.PageSize)
	d.stats.SimulatedReadTime += d.cfg.PageReadCost()
	out := make([]byte, d.cfg.PageSize)
	copy(out, d.pages[id])
	return out, nil
}

// Stats returns a snapshot of the disk activity counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the activity counters (allocation count is preserved).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	alloc := d.stats.PagesAllocated
	d.stats = DiskStats{PagesAllocated: alloc}
}
