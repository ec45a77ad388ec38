package rtree

import (
	"sync"

	"spatialsim/internal/index"
	"spatialsim/internal/par"
)

// parallelLoadMinItems is the size below which the sequential STR path is
// used: goroutine fan-out costs more than it saves on small inputs.
const parallelLoadMinItems = 1 << 13

// ParallelBulkLoad implements index.ParallelBulkLoader. It is the STR bulk
// load of BulkLoad decomposed for a worker pool:
//
//  1. entries are sorted by X center with a parallel merge sort (chunk sorts
//     followed by pairwise merge rounds);
//  2. the X-sorted sequence is cut into the same sort-tile slabs the
//     sequential pass would use, and the slabs — each an independent
//     sort-by-Y / tile-by-Z / pack job — are packed into leaf nodes by
//     concurrent workers;
//  3. the per-slab leaf runs are stitched in slab order (they are disjoint
//     X-ranges, so concatenation preserves the STR ordering), the one
//     possibly-underfull trailing node is rebalanced, and the upper levels —
//     a maxEntries-th of the data per level — are packed sequentially.
//
// The resulting tree answers every query exactly like its sequential
// counterpart; only node grouping may differ.
func (t *Tree) ParallelBulkLoad(items []index.Item, workers int) {
	if workers <= 1 || len(items) < parallelLoadMinItems {
		t.BulkLoad(items)
		return
	}
	entries := make([]entry, len(items))
	par.ForChunks(len(items), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			entries[i] = entry{box: items[i].Box, id: items[i].ID}
		}
	})
	parallelSortByCenter(entries, 0, workers)

	m := t.maxEntries
	slabSize, runSize := t.strTiling(len(entries))
	numSlabs := (len(entries) + slabSize - 1) / slabSize
	perSlab := make([][]*node, numSlabs)
	par.ForTasks(numSlabs, workers, func(_, si int) {
		lo := si * slabSize
		hi := minInt(lo+slabSize, len(entries))
		perSlab[si] = packTiles(entries[lo:hi], true, runSize, m)
	})

	var nodes []*node
	for _, slabNodes := range perSlab {
		nodes = append(nodes, slabNodes...)
	}
	t.rebalanceLastNode(nodes)

	height := 1
	for len(nodes) > 1 {
		parentEntries := make([]entry, len(nodes))
		for i, n := range nodes {
			parentEntries[i] = entry{box: n.bounds(), child: n}
		}
		nodes = t.strPack(parentEntries, false)
		height++
	}
	t.root = nodes[0]
	t.height = height
	t.size = len(items)
}

// parallelSortByCenter sorts entries by box center along the given axis using
// a chunked parallel merge sort: each worker sorts one contiguous chunk, then
// adjacent sorted runs are merged pairwise (each merge on its own goroutine)
// until one run remains.
func parallelSortByCenter(entries []entry, axis, workers int) {
	n := len(entries)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sortByCenter(entries, axis)
		return
	}
	bounds := make([]int, 0, workers+1)
	for w := 0; w <= workers; w++ {
		bounds = append(bounds, w*n/workers)
	}
	par.ForTasks(workers, workers, func(_, w int) {
		sortByCenter(entries[bounds[w]:bounds[w+1]], axis)
	})

	src, dst := entries, make([]entry, n)
	for len(bounds) > 2 {
		nextBounds := make([]int, 0, len(bounds)/2+1)
		var wg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			nextBounds = append(nextBounds, lo)
			wg.Add(1)
			go func(lo, mid, hi int) {
				defer wg.Done()
				mergeByCenter(dst[lo:hi], src[lo:mid], src[mid:hi], axis)
			}(lo, mid, hi)
		}
		if len(bounds)%2 == 0 {
			// Odd run count: the trailing run has no partner this round.
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			nextBounds = append(nextBounds, lo)
			copy(dst[lo:hi], src[lo:hi])
		}
		nextBounds = append(nextBounds, n)
		wg.Wait()
		src, dst = dst, src
		bounds = nextBounds
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
}

// mergeByCenter merges two runs sorted by box center on the given axis.
func mergeByCenter(dst, a, b []entry, axis int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i].box.Center().Axis(axis) <= b[j].box.Center().Axis(axis) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

var _ index.ParallelBulkLoader = (*Tree)(nil)
