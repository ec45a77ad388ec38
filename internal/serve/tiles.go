package serve

// The tile table: the write side of the store. Items live in STR tiles — a
// cut partitions the dataset with partitionSTR into tilesPerShard tiles per
// configured shard — and an id → (tile, slot) map routes every upsert and
// delete to its tile in O(1), the role SQLite's R*-Tree gives its
// %_rowid → nodeno side table. Staging a batch marks the tiles it touches
// dirty, and a publish rebuilds only those, carrying every clean tile's
// image into the next epoch by reference. Each non-empty tile is one shard
// of the epoch.
//
// The image is the data: once a publish has built a tile's image, the tile
// drops its item slice, and its slots are the leaf positions of the image
// (where names them). The first change staged into a clean tile materialises
// its items in leaf order, so every slot where holds stays valid, and from
// then on the tile's slice is its items until the next publish drops it
// again. At rest the table holds a count, the bounds and the image of each
// tile, and one id map.
//
// The layout is a function of the sequence of staged batches and nothing
// else — not of publish timing, coalescing or worker counts — so WAL replay
// after a crash rebuilds the layout the crashed process had:
//
//   - a batch longer than the live item count (a bulk load, the bootstrap
//     among them) always ends with a cut; any other batch is checked
//     against the re-cut trigger (retileNeeded), which reads only the
//     tiles' current cardinalities;
//   - a new id goes to the non-empty tile whose bounds grow least (volume,
//     then margin), ties to the lowest index; routing bounds are the tight
//     MBR of the tile as of the previous batch, grown by this batch's boxes;
//   - images are built from ID-sorted items with one goroutine per tile, so
//     a tile's image is a function of its item set, and so is a cut (STR
//     breaks ties on ID), whatever order slots and leaves put the items in;
//   - empty tiles are inert (never routed to, not counted, not published),
//     so a recovered table, which has only the persisted non-empty tiles,
//     behaves exactly like the one that wrote them.

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

const (
	// tilesPerShard is how many STR tiles a cut makes per configured shard:
	// a batch of localized moves then dirties a small share of the items,
	// and the fan-out over tiles stays a short loop over MBRs.
	tilesPerShard = 16
	// recutFactor is the drift bound of the re-cut trigger: a tile holding
	// more than recutFactor times the mean tile cardinality, or a layout with
	// fewer than 1/recutFactor of the tiles a cut would make, re-cuts.
	recutFactor = 2
	// recutMinTile exempts small tiles from the imbalance rule, so a tiny
	// store does not re-cut on every insert.
	recutMinTile = 64
	// itemSize is the bytes one materialised item takes in a tile's slice.
	itemSize = int64(unsafe.Sizeof(index.Item{}))
)

// tileLoc is an item's position in the table: its tile, and its slot in that
// tile — the index into the tile's items while they are materialised, and
// the item's leaf position in the tile's image while the tile is clean.
// Materialising keeps leaf order, so a slot means the same item in both.
type tileLoc struct{ tile, slot int32 }

// tile is one STR tile of the table.
type tile struct {
	// items is nil while the tile is clean: its items are then only the leaf
	// arrays of image. It holds them from the first change after a publish
	// (or from a cut or a seed) until a publish builds and drops them.
	items []index.Item
	// n counts the tile's items, materialised or not.
	n int
	// bounds is the routing MBR: tight over items at the end of the last
	// staged batch, grown by the boxes staged into the tile since.
	bounds geom.AABB
	// dirty marks items changed since image was built (guarded by the
	// store's stagingMu).
	dirty bool
	// image is the frozen shard last built from items; valid while the tile
	// is clean (written by a publish under the store's buildMu, and read by
	// staging only once that publish has dropped the tile's items).
	image Shard
}

// appendItems appends the tile's items to dst: its slice, or its image's
// leaves in leaf order while it is clean.
func (tl *tile) appendItems(dst []index.Item) []index.Item {
	if tl.items != nil || tl.n == 0 {
		return append(dst, tl.items...)
	}
	for i := range tl.n {
		dst = append(dst, tl.image.snap.Leaf(i))
	}
	return dst
}

// materialise gives a clean tile its items back before its first change:
// slot i is leaf i, so every where entry naming the tile stays valid.
func (tl *tile) materialise() {
	if tl.items == nil && tl.n > 0 {
		tl.items = tl.appendItems(make([]index.Item, 0, tl.n))
	}
}

// tileTable is the store's staged state (guarded by the store's stagingMu).
type tileTable struct {
	// want is the tile count a cut aims for.
	want  int
	tiles []*tile
	where map[int64]tileLoc
	// full is set by a cut or a re-seed: the next publish rebuilds every
	// tile, fanned out over the build workers.
	full bool
	// updates counts staged mutations (Stats.UpdatesStaged); cuts counts
	// cuts, the first included.
	updates int64
	cuts    int64
	// itemBytes is the capacity of the materialised item slices in bytes,
	// recounted after each staged batch and each publish's drop; metrics
	// read it without the lock.
	itemBytes atomic.Int64
}

func newTileTable(shards int) *tileTable {
	return &tileTable{want: max(shards, 1) * tilesPerShard}
}

// len returns the number of live items.
func (tt *tileTable) len() int { return len(tt.where) }

// stage applies one batch, tightens the routing bounds of the dirty tiles
// and re-cuts if the trigger fires. A batch longer than the table's live
// item count is a bulk load: its new ids skip routing and collect in one
// provisional tile, sized once for them and for the items the cut gathers
// into it, and the batch always ends with a cut.
func (tt *tileTable) stage(batch []Update) {
	tt.updates += int64(len(batch))
	if len(tt.tiles) == 0 {
		tt.where = make(map[int64]tileLoc, len(batch))
	}
	bulk := int32(-1)
	if len(batch) > tt.len() {
		upserts := 0
		for _, u := range batch {
			if !u.Delete {
				upserts++
			}
		}
		bulk = int32(len(tt.tiles))
		tt.tiles = append(tt.tiles, &tile{items: make([]index.Item, 0, upserts+tt.len()), bounds: geom.EmptyAABB()})
	}
	for _, u := range batch {
		if u.Delete {
			tt.delete(u.ID)
		} else {
			tt.upsert(u.ID, u.Box, bulk)
		}
	}
	for _, tl := range tt.tiles {
		if tl.dirty {
			tl.bounds = boundsOf(tl.items)
		}
	}
	switch {
	case tt.len() == 0:
		if len(tt.tiles) > 0 {
			tt.tiles, tt.full = nil, true
		}
	case bulk >= 0 || tt.retileNeeded():
		tt.cut(bulk)
	}
	tt.countItemBytes()
}

// upsert moves a live id in place or adds a new one: to tile bulk when it
// is not negative, else to the tile route picks.
func (tt *tileTable) upsert(id int64, box geom.AABB, bulk int32) {
	if loc, ok := tt.where[id]; ok {
		tl := tt.tiles[loc.tile]
		tl.materialise()
		tl.items[loc.slot].Box = box
		tl.bounds, tl.dirty = tl.bounds.Union(box), true
		return
	}
	ti := bulk
	if ti < 0 {
		ti = tt.route(box)
	}
	tl := tt.tiles[ti]
	tl.materialise()
	tt.where[id] = tileLoc{tile: ti, slot: int32(tl.n)}
	tl.items = append(tl.items, index.Item{ID: id, Box: box})
	tl.n++
	tl.bounds, tl.dirty = tl.bounds.Union(box), true
}

func (tt *tileTable) delete(id int64) {
	loc, ok := tt.where[id]
	if !ok {
		return
	}
	delete(tt.where, id)
	// Swap-remove: the tile's last item takes the freed slot.
	tl := tt.tiles[loc.tile]
	tl.materialise()
	tl.n--
	if last := int32(tl.n); loc.slot != last {
		tl.items[loc.slot] = tl.items[last]
		tt.where[tl.items[loc.slot].ID] = loc
	}
	tl.items, tl.dirty = tl.items[:tl.n], true
	if tl.n == 0 {
		tl.items = nil // an emptied tile is inert: release its slice
	}
}

// route picks the tile a new id joins: the non-empty tile whose bounds grow
// least by volume, then by margin, ties to the lowest index (tile 0 when
// every tile is empty).
func (tt *tileTable) route(box geom.AABB) int32 {
	best, bestVol, bestMargin := int32(0), 0.0, 0.0
	found := false
	for i, tl := range tt.tiles {
		if tl.n == 0 {
			continue
		}
		u := tl.bounds.Union(box)
		vol := u.Volume() - tl.bounds.Volume()
		margin := u.Margin() - tl.bounds.Margin()
		if !found || vol < bestVol || (vol == bestVol && margin < bestMargin) {
			best, bestVol, bestMargin, found = int32(i), vol, margin, true
		}
	}
	return best
}

// retileNeeded is the re-cut trigger, checked after every staged batch that
// is not a bulk load (which always cuts). It fires when the non-empty tiles
// are fewer than 1/recutFactor of what a cut would make (min(want, items)),
// or when one tile holds more than recutMinTile items and more than
// recutFactor times the mean. Moves of existing ids never change a tile's
// cardinality, so the paper's "massive but minimal movement" never re-cuts.
func (tt *tileTable) retileNeeded() bool {
	n := tt.len()
	if n == 0 {
		return false
	}
	live, largest := 0, 0
	for _, tl := range tt.tiles {
		if tl.n > 0 {
			live++
			largest = max(largest, tl.n)
		}
	}
	if live*recutFactor < min(tt.want, n) {
		return true
	}
	return largest > recutMinTile && largest*live > recutFactor*n
}

// cut re-partitions every live item into fresh STR tiles, all dirty; a clean
// tile contributes its image's leaves. After a bulk load (bulk >= 0) the
// other tiles' items are appended to the bulk tile's slice, which stage
// sized for them, instead of a fresh copy of everything; the new tiles are
// capped subslices of the gathered items.
func (tt *tileTable) cut(bulk int32) {
	var all []index.Item
	if bulk >= 0 {
		all = tt.tiles[bulk].items
	} else {
		all = make([]index.Item, 0, tt.len())
	}
	for i, tl := range tt.tiles {
		if int32(i) != bulk {
			all = tl.appendItems(all)
		}
	}
	parts := partitionSTR(all, tt.want)
	tt.tiles = make([]*tile, len(parts))
	for ti, part := range parts {
		tt.tiles[ti] = &tile{items: part[:len(part):len(part)], n: len(part), bounds: boundsOf(part), dirty: true}
		for slot, it := range part {
			tt.where[it.ID] = tileLoc{tile: int32(ti), slot: int32(slot)}
		}
	}
	tt.full = true
	tt.cuts++
}

// seed replaces the table with one tile per non-empty shard of a recovered
// epoch, every tile dirty: the first publish after recovery rebuilds all of
// them onto the heap, so no image overlaying a segment outlives its epoch.
func (tt *tileTable) seed(shards []Shard) {
	tt.tiles = tt.tiles[:0]
	tt.where = make(map[int64]tileLoc)
	for i := range shards {
		sh := &shards[i]
		if sh.Len() == 0 {
			continue
		}
		ti := int32(len(tt.tiles))
		items := make([]index.Item, sh.Len())
		for slot := range items {
			items[slot] = sh.snap.Leaf(slot)
			tt.where[items[slot].ID] = tileLoc{tile: ti, slot: int32(slot)}
		}
		tt.tiles = append(tt.tiles, &tile{items: items, n: len(items), bounds: boundsOf(items), dirty: true})
	}
	tt.full = true
	tt.countItemBytes()
}

// tileBuild is one dirty tile of a publish: its index in the table, a copy
// of its items (sorted by ID before the build) and the epoch shard slot its
// image fills.
type tileBuild struct {
	tile  *tile
	ti    int32
	items []index.Item
	shard int
}

// plan lays out the next epoch: one shard slot per non-empty tile, clean
// tiles carrying their image, dirty ones copied (into scratch, reused across
// publishes) for a build outside the staging lock. It reports whether the
// publish is a full rebuild and clears the dirty marks.
func (tt *tileTable) plan(scratch []index.Item) (shards []Shard, builds []tileBuild, full bool, buf []index.Item) {
	need := 0
	for _, tl := range tt.tiles {
		if tl.dirty {
			need += tl.n
		}
	}
	buf = slices.Grow(scratch[:0], need)
	for ti, tl := range tt.tiles {
		if tl.n == 0 {
			tl.dirty = false
			continue
		}
		if tl.dirty {
			start := len(buf)
			buf = append(buf, tl.items...)
			builds = append(builds, tileBuild{tile: tl, ti: int32(ti), items: buf[start:len(buf):len(buf)], shard: len(shards)})
			tl.dirty = false
		}
		shards = append(shards, tl.image)
	}
	full, tt.full = tt.full, false
	return shards, builds, full, buf
}

// drop runs once a publish's images are built: each built tile that is still
// in the table and was not dirtied again during the build hands its items
// over to its image — where is rewritten to the image's leaf positions and
// the slice is released. A tile a cut replaced, or one a later batch
// changed, keeps its items for the next publish.
func (tt *tileTable) drop(builds []tileBuild) {
	for _, b := range builds {
		tl := b.tile
		if int(b.ti) >= len(tt.tiles) || tt.tiles[b.ti] != tl || tl.dirty {
			continue
		}
		for i := range tl.n {
			tt.where[tl.image.snap.Leaf(i).ID] = tileLoc{tile: b.ti, slot: int32(i)}
		}
		tl.items = nil
	}
	tt.countItemBytes()
}

// countItemBytes recounts itemBytes over the tiles' materialised slices.
func (tt *tileTable) countItemBytes() {
	var n int64
	for _, tl := range tt.tiles {
		n += int64(cap(tl.items)) * itemSize
	}
	tt.itemBytes.Store(n)
}
