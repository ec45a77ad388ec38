package experiments

// PagedCompact is the disk-resident read path of the Figure 2 experiment:
// the serialized R-Tree snapshot (rtree.Compact's binary form, the blob
// every persisted segment record holds) queried page by page through a
// storage.BufferPool over the latency-modelled disk instead of
// materialized into memory, with a cold cache per query — the paper's
// protocol.
//
// The serialized form was designed for this: 64-byte node records mean a
// node never straddles more than two pages and a node's children are
// physically adjacent, and the SoA leaf regions scan sequentially within
// pages. Records are served through record(), which keeps the current page
// pinned across consecutive accesses (per-page pin amortization) and returns
// direct views into the pinned page — the scratch buffer is touched only
// when a record straddles a page boundary, so the read path performs no
// per-record copy and no per-record pool round trip.

import (
	"fmt"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

// WriteCompactPages serializes the snapshot onto the pager starting at a
// freshly allocated page, padding to a whole number of pages, and returns
// the first page id and the page count.
func WriteCompactPages(pager storage.Pager, c *rtree.Compact) (storage.PageID, int, error) {
	blob := c.AppendBinary(nil)
	ps := pager.PageSize()
	pages := (len(blob) + ps - 1) / ps
	if pages == 0 {
		pages = 1
	}
	start := storage.PageID(-1)
	for i := 0; i < pages; i++ {
		id := pager.Allocate()
		if i == 0 {
			start = id
		}
		lo := i * ps
		hi := lo + ps
		if hi > len(blob) {
			hi = len(blob)
		}
		var chunk []byte
		if lo < len(blob) {
			chunk = blob[lo:hi]
		}
		if err := pager.Write(id, chunk); err != nil {
			return start, 0, err
		}
	}
	return start, pages, nil
}

// PagedCompact queries a serialized snapshot resident on a page device. It
// is read-only and safe for sequential use; wrap per-goroutine instances
// around the same pager for concurrency (the pool is the shared cache).
type PagedCompact struct {
	pool     *storage.BufferPool
	pageSize int
	base     int64 // byte offset of the blob: start page * page size
	hdr      rtree.CompactHeader
	counters instrument.Counters
	scratch  [rtree.CompactNodeSize]byte
	stack    []int32

	// curPage/curData are the one page held pinned across consecutive record
	// accesses. Most traversal locality is within a page (adjacent children,
	// SoA leaf runs), so amortizing the pin per page replaces a pool
	// Pin/Get/Unpin round trip per record with a slice index.
	curPage storage.PageID
	curData []byte
}

// OpenPagedCompact opens the snapshot whose blob starts at page start of the
// pager. poolPages is the buffer-pool capacity (0 = the paper's cold-cache
// protocol of caching nothing between Clear calls — but note Get still
// serves repeated reads of a pinned page).
func OpenPagedCompact(pager storage.Pager, start storage.PageID, poolPages int) (*PagedCompact, error) {
	pc := &PagedCompact{
		pool:     storage.NewBufferPool(pager, poolPages),
		pageSize: pager.PageSize(),
		base:     int64(start) * int64(pager.PageSize()),
	}
	first, err := pc.pool.Get(start)
	if err != nil {
		return nil, err
	}
	avail := int64(pager.NumPages())*int64(pc.pageSize) - pc.base
	hdr, err := rtree.DecodeCompactHeader(first, int(avail))
	if err != nil {
		return nil, err
	}
	pc.hdr = hdr
	return pc, nil
}

// Len returns the number of indexed items.
func (pc *PagedCompact) Len() int { return pc.hdr.Size }

// Height returns the height of the tree.
func (pc *PagedCompact) Height() int { return pc.hdr.Height }

// Counters returns the traversal counters (node visits, intersection tests,
// pages read — the Figure 2 accounting).
func (pc *PagedCompact) Counters() *instrument.Counters { return &pc.counters }

// Pool returns the buffer pool queries read through.
func (pc *PagedCompact) Pool() *storage.BufferPool { return pc.pool }

// ClearCache drops the buffer pool contents (the paper's cold-cache protocol
// between queries). The held page is released first so the sweep is total.
func (pc *PagedCompact) ClearCache() {
	pc.releasePage()
	pc.pool.Clear()
}

// String describes the paged snapshot.
func (pc *PagedCompact) String() string {
	return fmt.Sprintf("paged-rtree{items=%d height=%d nodes=%d pageSize=%d}",
		pc.hdr.Size, pc.hdr.Height, pc.hdr.NodeCount, pc.pageSize)
}

// page returns the contents of the given page with the pin held until the
// next page switch or releasePage. Consecutive accesses to the same page —
// the common case for adjacent child records and SoA leaf runs — cost one
// comparison, no pool traffic. Page-read accounting: every pool miss is one
// page fetched from the device.
func (pc *PagedCompact) page(id storage.PageID) ([]byte, error) {
	if pc.curData != nil && id == pc.curPage {
		return pc.curData, nil
	}
	pc.pool.Pin(id)
	data, hit, err := pc.pool.GetTracked(id)
	if err != nil {
		pc.pool.Unpin(id)
		return nil, err
	}
	if !hit {
		pc.counters.AddPagesRead(1)
		pc.counters.AddBytesRead(int64(pc.pageSize))
	}
	pc.releasePage()
	pc.curPage, pc.curData = id, data
	return data, nil
}

// releasePage drops the held pin (end of traversal, or page switch).
func (pc *PagedCompact) releasePage() {
	if pc.curData != nil {
		pc.pool.Unpin(pc.curPage)
		pc.curData = nil
	}
}

// record returns a read-only view of blob bytes [off, off+n): a direct
// subslice of the pinned page when the record lies within one page, a stitch
// into the scratch buffer only when it straddles a boundary (n is at most a
// node record, so at most two pages are involved). The view is valid until
// the next record/page call.
func (pc *PagedCompact) record(off int64, n int) ([]byte, error) {
	abs := pc.base + off
	id := storage.PageID(abs / int64(pc.pageSize))
	within := int(abs % int64(pc.pageSize))
	data, err := pc.page(id)
	if err != nil {
		return nil, err
	}
	if within+n <= len(data) {
		return data[within : within+n], nil
	}
	// Straddle: copy the prefix, then the remainder from the next page.
	m := copy(pc.scratch[:n], data[within:])
	next, err := pc.page(id + 1)
	if err != nil {
		return nil, err
	}
	copy(pc.scratch[m:n], next)
	return pc.scratch[:n], nil
}

func (pc *PagedCompact) readNode(i int32) (box geom.AABB, first, count int32, leaf bool, err error) {
	off := int64(pc.hdr.NodesOffset()) + int64(i)*rtree.CompactNodeSize
	rec, err := pc.record(off, rtree.CompactNodeSize)
	if err != nil {
		return
	}
	box, first, count, leaf = rtree.DecodeCompactNode(rec)
	err = rtree.ValidateCompactNode(pc.hdr, int(i), first, count, leaf)
	return
}

func (pc *PagedCompact) readLeafBox(i int32) (geom.AABB, error) {
	off := int64(pc.hdr.LeafBoxesOffset()) + int64(i)*rtree.CompactLeafBoxSize
	rec, err := pc.record(off, rtree.CompactLeafBoxSize)
	if err != nil {
		return geom.AABB{}, err
	}
	return rtree.DecodeCompactLeafBox(rec), nil
}

func (pc *PagedCompact) readLeafID(i int32) (int64, error) {
	off := int64(pc.hdr.LeafIDsOffset()) + int64(i)*rtree.CompactLeafIDSize
	rec, err := pc.record(off, rtree.CompactLeafIDSize)
	if err != nil {
		return 0, err
	}
	return rtree.DecodeCompactLeafID(rec), nil
}

// Search invokes fn for every item whose box intersects query, fetching node
// and leaf records through the buffer pool. Traversal statistics are charged
// to the counters: pool misses to the page-read category, node-level MBR
// tests and leaf-level tests to the two intersection-test categories —
// mirroring the in-memory Compact's accounting so the Figure 2 comparison
// stays apples to apples.
func (pc *PagedCompact) Search(query geom.AABB, fn func(index.Item) bool) error {
	if pc.hdr.Size == 0 {
		return nil
	}
	defer pc.releasePage()
	var nodeVisits, treeTests, elemTests, results int64
	defer func() {
		pc.counters.AddNodeVisits(nodeVisits)
		pc.counters.AddTreeIntersectTests(treeTests)
		pc.counters.AddElemIntersectTests(elemTests)
		pc.counters.AddElementsTouched(elemTests)
		pc.counters.AddResults(results)
	}()

	pc.stack = pc.stack[:0]
	pc.stack = append(pc.stack, 0)
	rootChecked := false
	for len(pc.stack) > 0 {
		ni := pc.stack[len(pc.stack)-1]
		pc.stack = pc.stack[:len(pc.stack)-1]
		box, first, count, leaf, err := pc.readNode(ni)
		if err != nil {
			return err
		}
		if !rootChecked {
			rootChecked = true
			treeTests++
			if !query.Intersects(box) {
				return nil
			}
		}
		nodeVisits++
		if leaf {
			for i := first; i < first+count; i++ {
				lb, err := pc.readLeafBox(i)
				if err != nil {
					return err
				}
				if lb.Min.X > query.Max.X {
					break // leaf runs are sorted by Min.X, like the in-memory slab
				}
				elemTests++
				if query.Intersects(lb) {
					id, err := pc.readLeafID(i)
					if err != nil {
						return err
					}
					results++
					if !fn(index.Item{ID: id, Box: lb}) {
						return nil
					}
				}
			}
			continue
		}
		// Child boxes live in the child records themselves (contiguous, so
		// the scan is one or two pages); an intersecting child is pushed and
		// its record re-served from the pool when popped.
		treeTests += int64(count)
		for i := first; i < first+count; i++ {
			cb, _, _, _, err := pc.readNode(i)
			if err != nil {
				return err
			}
			if query.Intersects(cb) {
				pc.stack = append(pc.stack, i)
			}
		}
	}
	return nil
}

// SearchIDs collects the ids of all items intersecting query.
func (pc *PagedCompact) SearchIDs(query geom.AABB) ([]int64, error) {
	var out []int64
	err := pc.Search(query, func(it index.Item) bool {
		out = append(out, it.ID)
		return true
	})
	return out, err
}
