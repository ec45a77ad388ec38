package survey

import (
	"sort"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// The tree-based joins build a lightweight STR hierarchy over their inputs
// and then run entirely on a flattened form of it: all nodes in one
// contiguous slab addressed by int32 offsets (children of a node adjacent)
// and leaf items in structure-of-arrays storage. The join phase — the
// synchronized descent or the TOUCH subtree probes — is where virtually all
// node visits happen, so it is the part that must not chase pointers; the
// transient pointer form exists only during construction.

// joinNode is a node of the transient build-time hierarchy.
type joinNode struct {
	box      geom.AABB
	children []*joinNode
	items    []index.Item // non-empty only for leaves
}

const joinFanout = 16

// flatJoinNode is one slab node of the flattened hierarchy. For a leaf,
// [first, first+count) indexes the item SoA arrays; for an inner node it
// indexes the node slab itself.
type flatJoinNode struct {
	box   geom.AABB
	first int32
	count int32
	leaf  bool
}

// flatHierarchy is the packed read-only hierarchy the join phases traverse.
type flatHierarchy struct {
	nodes     []flatJoinNode
	itemBoxes []geom.AABB
	itemIDs   []int64
}

func (h *flatHierarchy) item(i int32) index.Item {
	return index.Item{ID: h.itemIDs[i], Box: h.itemBoxes[i]}
}

// buildFlatHierarchy STR-packs the items and returns the flattened
// hierarchy (a single root leaf for empty input keeps traversals simple).
func buildFlatHierarchy(items []index.Item) *flatHierarchy {
	return flattenHierarchy(buildHierarchy(items))
}

// buildHierarchy STR-packs the items into a transient pointer hierarchy.
func buildHierarchy(items []index.Item) *joinNode {
	if len(items) == 0 {
		return &joinNode{box: geom.EmptyAABB()}
	}
	leaves := packItems(items)
	nodes := leaves
	for len(nodes) > 1 {
		nodes = packNodes(nodes)
	}
	return nodes[0]
}

// flattenHierarchy lays the pointer hierarchy out in breadth-first slab
// order, so children of a node are contiguous and the upper levels sit at
// the front of the slab.
func flattenHierarchy(root *joinNode) *flatHierarchy {
	h := &flatHierarchy{}
	type pending struct {
		n   *joinNode
		idx int32
	}
	h.nodes = append(h.nodes, flatJoinNode{})
	queue := []pending{{n: root, idx: 0}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if len(p.n.children) == 0 {
			first := int32(len(h.itemIDs))
			for _, it := range p.n.items {
				h.itemBoxes = append(h.itemBoxes, it.Box)
				h.itemIDs = append(h.itemIDs, it.ID)
			}
			h.nodes[p.idx] = flatJoinNode{box: p.n.box, first: first, count: int32(len(p.n.items)), leaf: true}
			continue
		}
		first := int32(len(h.nodes))
		for _, c := range p.n.children {
			childIdx := int32(len(h.nodes))
			h.nodes = append(h.nodes, flatJoinNode{})
			queue = append(queue, pending{n: c, idx: childIdx})
		}
		h.nodes[p.idx] = flatJoinNode{box: p.n.box, first: first, count: int32(len(p.n.children))}
	}
	return h
}

func packItems(items []index.Item) []*joinNode {
	sorted := append([]index.Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Box.Center().X < sorted[j].Box.Center().X
	})
	var leaves []*joinNode
	for i := 0; i < len(sorted); i += joinFanout {
		chunk := sorted[i:min(i+joinFanout, len(sorted))]
		box := geom.EmptyAABB()
		for _, it := range chunk {
			box = box.Union(it.Box)
		}
		leaves = append(leaves, &joinNode{box: box, items: append([]index.Item(nil), chunk...)})
	}
	return leaves
}

func packNodes(nodes []*joinNode) []*joinNode {
	sorted := append([]*joinNode(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].box.Center().X < sorted[j].box.Center().X
	})
	var parents []*joinNode
	for i := 0; i < len(sorted); i += joinFanout {
		chunk := sorted[i:min(i+joinFanout, len(sorted))]
		box := geom.EmptyAABB()
		for _, c := range chunk {
			box = box.Union(c.box)
		}
		parents = append(parents, &joinNode{box: box, children: append([]*joinNode(nil), chunk...)})
	}
	return parents
}
