package rtree

import (
	"math"
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
)

// Compact is a packed, read-optimised snapshot of an R-Tree. All nodes live
// in one contiguous slab addressed by int32 offsets (children of a node are
// adjacent, so a node test and the descent to its children stay within a few
// cache lines) and leaf entries are stored as structure-of-arrays — one
// []geom.AABB for the boxes the hot loop tests and one []int64 for the ids it
// only reads on a hit. This is the paper's Section 3.3 memory layout argument
// applied to the R-Tree: in memory the index is bound by per-test cost and
// cache misses, not page I/O, so the traversal structure itself must be
// cache-conscious.
//
// A Compact is immutable and safe for unboundedly concurrent readers.
// RangeVisit performs zero heap allocations per call; KNNInto allocates only
// until its pooled traversal heap is warm.
type Compact struct {
	nodes     []compactNode
	leafBoxes []geom.AABB
	leafIDs   []int64
	// leafStart is the slab index of the first leaf node. The R-Tree is
	// height-balanced and nodes are laid out breadth-first, so the leaves
	// form a contiguous suffix of the slab and leafness is a single index
	// comparison — range traversal exploits this to scan leaves inline from
	// their parent instead of routing them through the stack.
	leafStart int32
	size      int
	height    int
	// heapCap sizes the pooled KNN traversal heaps (4x the source tree's
	// fan-out). It is part of the serialized form, so an overlay pools
	// heaps exactly like the one that was frozen.
	heapCap int
	// zeroCopy is set by OverlayCompact when the slabs alias the caller's
	// bytes rather than an aligned copy of them.
	zeroCopy bool
	counters instrument.Counters
	knnPool  sync.Pool // *compactKNNState
}

// initPools installs the pool constructors (shared by Freeze and
// OverlayCompact). The closure captures the snapshot itself, which is fine —
// unlike capturing the mutable source tree, it pins nothing beyond the
// snapshot's own lifetime.
func (c *Compact) initPools() {
	c.knnPool.New = func() interface{} {
		return &compactKNNState{heap: make([]compactHeapEnt, 0, c.heapCap)}
	}
}

// compactNode is one slab node. For a leaf, [first, first+count) indexes the
// leaf SoA arrays; for an inner node it indexes the node slab itself. The
// explicit tail padding makes the struct the 64-byte serialized record on
// every GOARCH, including those that align float64 to 4 bytes (386), which
// is what lets OverlayCompact view serialized bytes as a []compactNode.
type compactNode struct {
	box   geom.AABB
	first int32
	count int32
	leaf  bool
	_     [7]byte
}

// compactStackCap bounds the traversal stack kept on the goroutine stack.
// The worst case is height*(maxEntries-1)+1; with the default fan-out of 16
// a tree of a billion entries is 8 levels tall, so 128 leaves margin while
// keeping the per-call array zeroing cheap (512 B). Overflow falls back to a
// (allocating) slice grow, preserving correctness.
const compactStackCap = 128

// Freeze returns a packed snapshot of the tree's current contents. The
// snapshot is independent: later tree mutations do not affect it. Nodes are
// laid out in breadth-first order, which keeps every node's children
// contiguous and places the upper levels — the entries every query tests —
// at the front of the slab.
func (t *Tree) Freeze() *Compact {
	c := &Compact{size: t.size, height: t.height, heapCap: 4 * t.maxEntries}
	c.initPools()
	if t.size == 0 {
		return c
	}
	type pending struct {
		n   *node
		idx int32
	}
	// Every slab and the queue are sized once: the item count is known and
	// the node count is one walk over the nodes, so the breadth-first
	// copy below never grows a slice.
	nodes := t.root.countNodes()
	c.nodes = make([]compactNode, 1, nodes)
	c.leafBoxes = make([]geom.AABB, 0, t.size)
	c.leafIDs = make([]int64, 0, t.size)
	queue := make([]pending, 1, nodes)
	queue[0] = pending{n: t.root, idx: 0}
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		box := geom.EmptyAABB()
		if p.n.leaf {
			first := int32(len(c.leafIDs))
			for i := range p.n.entries {
				c.leafBoxes = append(c.leafBoxes, p.n.entries[i].box)
				c.leafIDs = append(c.leafIDs, p.n.entries[i].id)
				box = box.Union(p.n.entries[i].box)
			}
			c.sortLeafRun(first, int32(len(c.leafIDs)))
			c.nodes[p.idx] = compactNode{box: box, first: first, count: int32(len(p.n.entries)), leaf: true}
			continue
		}
		first := int32(len(c.nodes))
		for i := range p.n.entries {
			childIdx := int32(len(c.nodes))
			c.nodes = append(c.nodes, compactNode{})
			queue = append(queue, pending{n: p.n.entries[i].child, idx: childIdx})
			box = box.Union(p.n.entries[i].box)
		}
		c.nodes[p.idx] = compactNode{box: box, first: first, count: int32(len(p.n.entries))}
	}
	c.leafStart = int32(len(c.nodes))
	for i := range c.nodes {
		if c.nodes[i].leaf {
			c.leafStart = int32(i)
			break
		}
	}
	return c
}

// countNodes returns the number of nodes in the subtree rooted at n.
func (n *node) countNodes() int {
	if n.leaf {
		return 1
	}
	total := 1
	for i := range n.entries {
		total += n.entries[i].child.countNodes()
	}
	return total
}

// sortLeafRun insertion-sorts one leaf's SoA run [first, end) by box Min.X
// (runs hold at most maxEntries entries, where insertion sort is optimal and
// allocation-free). Sorted runs let range scans stop at the first box whose
// Min.X lies beyond the query — on average half of a boundary leaf's
// entries are never tested at all.
func (c *Compact) sortLeafRun(first, end int32) {
	for a := first + 1; a < end; a++ {
		for b := a; b > first && c.leafBoxes[b].Min.X < c.leafBoxes[b-1].Min.X; b-- {
			c.leafBoxes[b], c.leafBoxes[b-1] = c.leafBoxes[b-1], c.leafBoxes[b]
			c.leafIDs[b], c.leafIDs[b-1] = c.leafIDs[b-1], c.leafIDs[b]
		}
	}
}

// FreezeItems bulk-loads the items with STR and returns the packed snapshot
// directly — the one-call build path for read-mostly phases.
func FreezeItems(items []index.Item, cfg Config) *Compact {
	t := New(cfg)
	t.BulkLoad(items)
	return t.Freeze()
}

// Name implements index.ReadIndex.
func (c *Compact) Name() string { return "rtree-compact" }

// Len implements index.ReadIndex.
func (c *Compact) Len() int { return c.size }

// Height returns the height of the frozen tree.
func (c *Compact) Height() int { return c.height }

// Bounds returns the bounding box of the whole snapshot, cached at freeze
// time (no entry scan).
func (c *Compact) Bounds() geom.AABB {
	if len(c.nodes) == 0 {
		return geom.EmptyAABB()
	}
	return c.nodes[0].box
}

// Leaf returns leaf entry i, 0 <= i < Len(): the leaf arrays hold every item
// once, so a position in them names an item of the snapshot for as long as
// the snapshot lives (the store's tile table keys its id map on it).
func (c *Compact) Leaf(i int) index.Item {
	return index.Item{ID: c.leafIDs[i], Box: c.leafBoxes[i]}
}

// Counters returns the snapshot's traversal counters.
func (c *Compact) Counters() *instrument.Counters { return &c.counters }

// RangeVisit implements index.RangeVisitor: an iterative traversal over the
// node slab with a fixed-size stack, performing zero heap allocations per
// call. Cost accounting matches the mutable tree's Search (tree-level tests
// against inner entries, element-level tests against leaf entries), but the
// counts are accumulated in locals and flushed once per call — the mutable
// tree pays several atomic adds per visited node, which on a parallel query
// batch is contended cache-line traffic the flat path avoids.
func (c *Compact) RangeVisit(query geom.AABB, visit func(index.Item) bool) {
	if c.size == 0 {
		return
	}
	var nodeVisits, treeTests, elemTests, results int64
	defer func() {
		c.counters.AddNodeVisits(nodeVisits)
		c.counters.AddTreeIntersectTests(treeTests)
		c.counters.AddElemIntersectTests(elemTests)
		c.counters.AddElementsTouched(elemTests)
		c.counters.AddResults(results)
	}()
	treeTests++
	if !query.Intersects(c.nodes[0].box) {
		return
	}
	var stackArr [compactStackCap]int32
	stack := stackArr[:0]
	stack = append(stack, 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &c.nodes[ni]
		nodeVisits++
		if n.leaf { // only the root can reach the stack as a leaf
			boxes := c.leafBoxes[n.first : n.first+n.count]
			ids := c.leafIDs[n.first : n.first+n.count]
			for i := range boxes {
				if boxes[i].Min.X > query.Max.X {
					break // sorted by Min.X: nothing further can intersect
				}
				elemTests++
				if query.Intersects(boxes[i]) {
					results++
					if !visit(index.Item{ID: ids[i], Box: boxes[i]}) {
						return
					}
				}
			}
			continue
		}
		treeTests += int64(n.count)
		children := c.nodes[n.first : n.first+n.count]
		for i := range children {
			if !query.Intersects(children[i].box) {
				continue
			}
			ci := n.first + int32(i)
			if ci < c.leafStart {
				stack = append(stack, ci)
				continue
			}
			// Leaf child: scan its SoA run inline instead of round-tripping
			// through the stack (leaves are the bulk of visited nodes).
			ch := &children[i]
			nodeVisits++
			boxes := c.leafBoxes[ch.first : ch.first+ch.count]
			ids := c.leafIDs[ch.first : ch.first+ch.count]
			for j := range boxes {
				if boxes[j].Min.X > query.Max.X {
					break // sorted by Min.X: nothing further can intersect
				}
				elemTests++
				if query.Intersects(boxes[j]) {
					results++
					if !visit(index.Item{ID: ids[j], Box: boxes[j]}) {
						return
					}
				}
			}
		}
	}
}

// Search mirrors index.Index's Search signature so a Compact can stand in for
// the mutable tree in read-only experiment code.
func (c *Compact) Search(query geom.AABB, fn func(index.Item) bool) {
	c.RangeVisit(query, fn)
}

// RangeVisitBatch is RangeVisit under the name the benchmark harness's
// per-layer trace times (rtree.batch_scan_us). There is one range kernel.
func (c *Compact) RangeVisitBatch(query geom.AABB, visit func(index.Item) bool) {
	c.RangeVisit(query, visit)
}

// ZeroCopy reports whether the snapshot's slabs alias the bytes it was
// overlaid on. It is false for Freeze-built snapshots and for overlays of a
// misaligned buffer, which serve from an aligned copy.
func (c *Compact) ZeroCopy() bool { return c.zeroCopy }

// compactHeapEnt is one entry of the best-first KNN priority queue. ref >= 0
// addresses a slab node; ref < 0 addresses leaf entry ^ref. Keeping the queue
// entry at 16 bytes (vs. the boxed 72-byte entries of the pointer tree's
// container/heap) is most of the KNN speedup.
type compactHeapEnt struct {
	dist float64
	ref  int32
}

type compactKNNState struct {
	heap []compactHeapEnt
}

// KNNInto implements index.KNNer with the classic best-first traversal over
// the slab. The priority queue is a manual binary heap taken from a pool, so
// a warm call performs zero heap allocations (results are appended to the
// caller-owned buf).
func (c *Compact) KNNInto(p geom.Vec3, k int, buf []index.Item) []index.Item {
	return c.KNNWithin(p, k, math.Inf(1), buf)
}

// KNNWithin is KNNInto limited to items whose squared distance to p is at
// most bound2: the traversal stops at the first heap entry beyond it, so the
// result is the prefix of KNNInto's within the bound.
func (c *Compact) KNNWithin(p geom.Vec3, k int, bound2 float64, buf []index.Item) []index.Item {
	if k <= 0 || c.size == 0 {
		return buf
	}
	st := c.knnPool.Get().(*compactKNNState)
	h := st.heap[:0]
	h = pushHeapEnt(h, compactHeapEnt{dist: c.nodes[0].box.Distance2ToPoint(p), ref: 0})
	var nodeVisits, treeTests, elemTests int64
	found := 0
	for len(h) > 0 && found < k && h[0].dist <= bound2 {
		e := h[0]
		h = popHeapEnt(h)
		if e.ref < 0 {
			i := ^e.ref
			buf = append(buf, index.Item{ID: c.leafIDs[i], Box: c.leafBoxes[i]})
			found++
			continue
		}
		n := &c.nodes[e.ref]
		nodeVisits++
		if n.leaf {
			elemTests += int64(n.count)
			for i := n.first; i < n.first+n.count; i++ {
				h = pushHeapEnt(h, compactHeapEnt{dist: c.leafBoxes[i].Distance2ToPoint(p), ref: ^i})
			}
		} else {
			treeTests += int64(n.count)
			for i := n.first; i < n.first+n.count; i++ {
				h = pushHeapEnt(h, compactHeapEnt{dist: c.nodes[i].box.Distance2ToPoint(p), ref: i})
			}
		}
	}
	st.heap = h
	c.knnPool.Put(st)
	// Flushed once per call, like RangeVisit: per-node atomic adds would be
	// contended cache-line traffic on parallel KNN batches.
	c.counters.AddNodeVisits(nodeVisits)
	c.counters.AddTreeIntersectTests(treeTests)
	c.counters.AddElemIntersectTests(elemTests)
	return buf
}

// KNN mirrors index.Index's KNN signature (allocating a fresh result slice).
func (c *Compact) KNN(p geom.Vec3, k int) []index.Item {
	if k <= 0 || c.size == 0 {
		return nil
	}
	return c.KNNInto(p, k, make([]index.Item, 0, k))
}

func pushHeapEnt(h []compactHeapEnt, e compactHeapEnt) []compactHeapEnt {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func popHeapEnt(h []compactHeapEnt) []compactHeapEnt {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].dist < h[min].dist {
			min = l
		}
		if r < len(h) && h[r].dist < h[min].dist {
			min = r
		}
		if min == i {
			return h
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

var _ index.ReadIndex = (*Compact)(nil)
