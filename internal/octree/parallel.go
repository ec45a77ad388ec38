package octree

import (
	"spatialsim/internal/index"
	"spatialsim/internal/par"
)

// parallelLoadMinItems is the size below which the sequential path is used.
const parallelLoadMinItems = 1 << 12

// ParallelBulkLoad implements index.ParallelBulkLoader. The root is
// pre-split into its eight octants and items are routed to their octants by
// concurrent workers into worker-private buckets (so the routing pass is
// lock-free); each octant subtree is then built concurrently, which is safe
// because inserts below distinct children touch disjoint nodes. Placement
// follows the tree's policy exactly — replicating octrees copy an item into
// every octant it overlaps, loose octrees keep it in the deepest loose region
// containing it, and items fitting no octant stay at the root — so queries
// answer exactly like after a sequential BulkLoad.
func (t *Tree) ParallelBulkLoad(items []index.Item, workers int) {
	if workers <= 1 || len(items) < parallelLoadMinItems || t.cfg.MaxDepth < 1 {
		t.BulkLoad(items)
		return
	}
	t.root = &node{region: t.cfg.Universe}
	var children [8]*node
	for i := range children {
		children[i] = &node{region: t.root.region.Octant(i), depth: 1}
	}
	t.root.children = &children
	t.counters.AddUpdates(int64(len(items)))
	t.size = len(items)

	// Route items to octants with worker-private buckets; bucket[8] holds the
	// items that fit no octant and stay at the root.
	type buckets struct {
		lists [9][]item
	}
	per := make([]*buckets, workers)
	par.ForChunks(len(items), workers, func(worker, lo, hi int) {
		b := &buckets{}
		per[worker] = b
		for i := lo; i < hi; i++ {
			it := item{id: items[i].ID, box: items[i].Box}
			placed := false
			if t.cfg.Loose {
				for ci, c := range children {
					if t.looseRegion(c).Contains(it.box) {
						b.lists[ci] = append(b.lists[ci], it)
						placed = true
						break
					}
				}
			} else {
				for ci, c := range children {
					if c.region.Intersects(it.box) {
						b.lists[ci] = append(b.lists[ci], it)
						placed = true
					}
				}
			}
			if !placed {
				b.lists[8] = append(b.lists[8], it)
			}
		}
	})
	for _, b := range per {
		if b != nil {
			t.root.items = append(t.root.items, b.lists[8]...)
		}
	}

	// Build the eight subtrees concurrently.
	par.ForTasks(8, workers, func(_, ci int) {
		for _, b := range per {
			if b == nil {
				continue
			}
			for _, it := range b.lists[ci] {
				t.insert(children[ci], it)
			}
		}
	})
}

var _ index.ParallelBulkLoader = (*Tree)(nil)
