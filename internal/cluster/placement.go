package cluster

import (
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/serve"
)

// Tile is one placement unit: an STR-cut region of the dataset, represented
// by its centroid (routing is nearest-centroid, a total deterministic
// function over space) and the nodes that own a full replica of its items,
// primary first.
type Tile struct {
	// Center is the centroid of the tile's bootstrap MBR; writes route to
	// the tile whose center is nearest the item's box center.
	Center geom.Vec3 `json:"center"`
	// Bounds is the MBR of the bootstrap items the tile was cut from
	// (diagnostic; routing uses Center so the function stays total as items
	// move).
	Bounds geom.AABB `json:"bounds"`
	// Owners are node indices holding the tile's items, primary first.
	Owners []int `json:"owners"`
}

// ownedBy reports whether node holds a replica of the tile.
func (t *Tile) ownedBy(node int) bool {
	for _, o := range t.Owners {
		if o == node {
			return true
		}
	}
	return false
}

// Placement is the immutable tile map of a cluster: computed once from the
// bootstrap dataset with the same STR discipline the epoch builder uses, one
// tile per node, replicated round-robin.
type Placement struct {
	tiles []Tile
}

// NewPlacement cuts items into one tile per node with serve.PartitionSTR and
// assigns each tile its primary (tile i -> node i) plus replication-1
// round-robin replicas. replication is clamped to [1, nodes]. items is not
// modified (the STR sort works on a copy).
func NewPlacement(items []index.Item, nodes, replication int) Placement {
	if nodes < 1 {
		nodes = 1
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	scratch := make([]index.Item, len(items))
	copy(scratch, items)
	parts := serve.PartitionSTR(scratch, nodes)

	tiles := make([]Tile, 0, nodes)
	for i := 0; i < nodes; i++ {
		t := Tile{Owners: make([]int, 0, replication)}
		for r := 0; r < replication; r++ {
			t.Owners = append(t.Owners, (i+r)%nodes)
		}
		if i < len(parts) {
			t.Bounds = serve.BoundsOf(parts[i])
			t.Center = t.Bounds.Center()
		} else {
			// Fewer parts than nodes (tiny bootstrap): give the spare tile a
			// distinct center so routing stays deterministic.
			t.Center = geom.V(float64(i), float64(i), float64(i))
		}
		tiles = append(tiles, t)
	}
	return Placement{tiles: tiles}
}

// Tiles returns the placement's tile map (read-only).
func (p Placement) Tiles() []Tile { return p.tiles }

// Route returns the index of the tile owning box: the tile whose center is
// nearest the box center, ties broken toward the lower index. Deterministic
// and total — every box routes somewhere, including far outside the
// bootstrap extent.
func (p Placement) Route(box geom.AABB) int {
	c := box.Center()
	best, bestD := 0, -1.0
	for i := range p.tiles {
		d := dist2(p.tiles[i].Center, c)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func dist2(a, b geom.Vec3) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return dx*dx + dy*dy + dz*dz
}
