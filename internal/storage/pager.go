package storage

// Pager is the page-device contract of the Figure 2 reproduction: the
// latency-modelling simulated Disk implements it, and the BufferPool caches
// any implementation. Code written against Pager — the paged R-Tree reader
// of internal/experiments most importantly — runs over the paper's
// cold-cache I/O model unchanged.
//
// Page ids are dense: Allocate hands out 0, 1, 2, ... in order, and Read or
// Write of an id that was never allocated is an error.
type Pager interface {
	// PageSize returns the size of one page in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Allocate reserves a new zeroed page and returns its id.
	Allocate() PageID
	// Read returns the contents of the page (always PageSize bytes).
	Read(id PageID) ([]byte, error)
	// Write stores data into the page; data shorter than a page leaves the
	// remainder zeroed.
	Write(id PageID, data []byte) error
}

var _ Pager = (*Disk)(nil)
