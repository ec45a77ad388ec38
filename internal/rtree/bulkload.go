package rtree

import (
	"math"
	"sort"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// BulkLoad replaces the tree contents with the given items using the
// Sort-Tile-Recursive (STR) algorithm. The paper's Section 4.1 observes that
// for massively changing datasets rebuilding (bulk loading) the index is often
// cheaper than updating it in place; this is the rebuild path.
func (t *Tree) BulkLoad(items []index.Item) {
	t.root = &node{leaf: true}
	t.height = 1
	t.size = len(items)
	if len(items) == 0 {
		return
	}
	leafEntries := make([]entry, len(items))
	for i, it := range items {
		leafEntries[i] = entry{box: it.Box, id: it.ID}
	}
	nodes := t.strPack(leafEntries, true)
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
}

// strPack groups entries into nodes of at most maxEntries using Sort-Tile-
// Recursive tiling: sort by X center, cut into vertical slabs, sort each slab
// by Y center, cut into runs, sort each run by Z center and cut into nodes.
// Slab and run sizes are multiples of the node capacity so only the very last
// node can come out underfull; that node is rebalanced with its predecessor
// to respect the minimum-occupancy invariant.
func (t *Tree) strPack(entries []entry, leaf bool) []*node {
	m := t.maxEntries
	n := len(entries)
	if n <= m {
		return []*node{{leaf: leaf, entries: append([]entry(nil), entries...)}}
	}
	// Slabs of s*s*m entries cut by X, runs of s*m entries cut by Y, nodes
	// of m entries cut by Z, with s the cube root of the page count.
	s := max(int(math.Ceil(math.Cbrt(float64((n+m-1)/m)))), 1)
	slabSize, runSize := s*s*m, s*m

	sortByCenter(entries, 0)
	var nodes []*node
	for i := 0; i < n; i += slabSize {
		slab := entries[i:minInt(i+slabSize, n)]
		nodes = append(nodes, packTiles(slab, leaf, runSize, m)...)
	}
	if len(nodes) > 1 {
		last := nodes[len(nodes)-1]
		if len(last.entries) < t.minEntries {
			prev := nodes[len(nodes)-2]
			merged := append(prev.entries, last.entries...)
			half := (len(merged) + 1) / 2
			prev.entries = merged[:half]
			last.entries = append([]entry(nil), merged[half:]...)
		}
	}
	return nodes
}

// packTiles packs one X-slab into nodes: sort the slab by Y center, cut it
// into runs, sort each run by Z center and emit nodes of at most m entries.
func packTiles(slab []entry, leaf bool, runSize, m int) []*node {
	var nodes []*node
	sortByCenter(slab, 1)
	for j := 0; j < len(slab); j += runSize {
		run := slab[j:minInt(j+runSize, len(slab))]
		sortByCenter(run, 2)
		for k := 0; k < len(run); k += m {
			chunk := run[k:minInt(k+m, len(run))]
			nodes = append(nodes, &node{leaf: leaf, entries: append([]entry(nil), chunk...)})
		}
	}
	return nodes
}

func sortByCenter(entries []entry, axis int) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].box.Center().Axis(axis) < entries[j].box.Center().Axis(axis)
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ItemsFromBoxes is a convenience helper building bulk-load input from
// parallel id/box slices.
func ItemsFromBoxes(ids []int64, boxes []geom.AABB) []index.Item {
	items := make([]index.Item, len(ids))
	for i := range ids {
		items[i] = index.Item{ID: ids[i], Box: boxes[i]}
	}
	return items
}
