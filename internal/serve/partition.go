package serve

import (
	"cmp"
	"math"
	"slices"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// partitionSTR splits items into at most k spatially coherent, equally sized
// parts using the sort-tile-recursive discipline the R-Tree bulk loader
// applies at node level, lifted to shard granularity: items are sorted by
// box-center x and cut into vertical slabs, each slab is sorted by y and cut
// into tiles, each tile is sorted by z and cut into the final parts. Every
// item lands in exactly one part, so shard query fan-out never produces
// duplicates; parts are contiguous in space, so range queries overlap few
// shards. The slice is sorted in place; ties break on ID to keep the
// partitioning deterministic.
func partitionSTR(items []index.Item, k int) [][]index.Item {
	if len(items) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(items) {
		k = len(items)
	}
	if k == 1 {
		return [][]index.Item{items}
	}

	// Factor k into nx*ny*nz cuts as close to cubical as the value allows
	// without overshooting (k=8 -> 2x2x2, k=12 -> 2x2x3, k=5 -> 1x2x2); the
	// part count is a bound, so rounding down is the safe direction.
	nx := int(math.Cbrt(float64(k)) + 1e-9)
	if nx < 1 {
		nx = 1
	}
	ny := int(math.Sqrt(float64(k/nx)) + 1e-9)
	if ny < 1 {
		ny = 1
	}
	nz := k / (nx * ny)
	if nz < 1 {
		nz = 1
	}

	// The sorts compare precomputed (center, ID) keys with an inlined
	// comparator — not two Box.Center() calls per comparison through a
	// reflection swapper — and move 24-byte keys, not items; each sorted
	// run is then permuted into place.
	keys := make([]centerKey, len(items))
	bounds := make([][2]int, 0, nx*ny*nz)
	sortByCenter(items, keys, 0)
	for _, slab := range cutBounds(0, len(items), nx) {
		sortByCenter(items[slab[0]:slab[1]], keys, 1)
		for _, tile := range cutBounds(slab[0], slab[1], ny) {
			sortByCenter(items[tile[0]:tile[1]], keys, 2)
			bounds = append(bounds, cutBounds(tile[0], tile[1], nz)...)
		}
	}
	parts := make([][]index.Item, len(bounds))
	for i, b := range bounds {
		parts[i] = items[b[0]:b[1]]
	}
	return parts
}

// centerKey is an item's sort key along one axis: its box center, then its
// ID; pos is the item's index in the run being sorted.
type centerKey struct {
	c   float64
	id  int64
	pos int
}

// sortByCenter orders items by box center along the given axis, breaking
// ties by ID, using keys (at least len(items) long) as scratch.
func sortByCenter(items []index.Item, keys []centerKey, axis int) {
	keys = keys[:len(items)]
	for i := range items {
		keys[i] = centerKey{c: items[i].Box.Center().Axis(axis), id: items[i].ID, pos: i}
	}
	slices.SortFunc(keys, func(a, b centerKey) int {
		if c := cmp.Compare(a.c, b.c); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	// Permute in place along cycles: slot i takes the item keys[i].pos
	// names; a placed slot's pos is set to -1.
	for start := range keys {
		if keys[start].pos < 0 || keys[start].pos == start {
			continue
		}
		held := items[start]
		i := start
		for {
			src := keys[i].pos
			keys[i].pos = -1
			if src == start {
				items[i] = held
				break
			}
			items[i] = items[src]
			i = src
		}
	}
}

// cutBounds splits [lo, hi) into up to n contiguous runs of near-equal
// length, dropping empty runs — cutRuns over index bounds.
func cutBounds(lo, hi, n int) [][2]int {
	size := hi - lo
	if n > size {
		n = size
	}
	runs := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		a := lo + i*size/n
		b := lo + (i+1)*size/n
		if a < b {
			runs = append(runs, [2]int{a, b})
		}
	}
	return runs
}

// PartitionSTR is the exported form of the store's sort-tile-recursive
// partitioning, for callers that place data with the same discipline the
// epoch builder shards with — the cluster placement layer cuts the dataset
// into node-sized tiles through it, so node boundaries nest naturally over
// shard boundaries. The slice is sorted in place; each returned part is a
// subslice of items.
func PartitionSTR(items []index.Item, k int) [][]index.Item {
	return partitionSTR(items, k)
}

// BoundsOf returns the union of all item boxes (the MBR of a part).
func BoundsOf(items []index.Item) geom.AABB { return boundsOf(items) }

// boundsOf returns the union of all item boxes (the shard MBR).
func boundsOf(items []index.Item) geom.AABB {
	b := geom.EmptyAABB()
	for i := range items {
		b = b.Union(items[i].Box)
	}
	return b
}
