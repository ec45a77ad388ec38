// Package index defines the common contract implemented by every in-memory
// spatial index in spatialsim (R-Tree, CR-Tree, KD-Tree, Octree, uniform
// grid, LSH, SimIndex). Experiment harnesses, the simulation driver and the
// moving-object strategies are written against this contract so that index
// families can be swapped freely — exactly the comparison the paper calls
// for.
package index

import (
	"slices"
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/instrument"
)

// Item is an (id, bounding box) pair stored in an index.
type Item struct {
	ID  int64
	Box geom.AABB
}

// AppendItem appends it to buf, doubling the capacity when buf is full: a
// large query result then allocates about twice its final size in total,
// where append's 1.25x steps for large slices allocate four to five times
// it — garbage that sets the GC pace of a server answering large ranges.
func AppendItem(buf []Item, it Item) []Item {
	if len(buf) == cap(buf) {
		buf = slices.Grow(buf, max(len(buf), 64))
	}
	return append(buf, it)
}

// MaxPooledItems caps the result buffers the item pool keeps: 1<<15 items,
// 1.75 MiB at 56 bytes an item. It is sized by the number of matches, not by
// the size of the reply, which is why it is far above httpapi's 64 KiB
// maxPooledReply: a served scan materialises every match (about 16 000 in
// the benchmark's scan class, which AppendItem grows to 16 384 or 32 768)
// and then replies with only ?limit= of them, so its item buffer is large
// while its reply is small. A buffer grown past the cap is dropped, so an
// unusually large range does not stay resident. The pool keeps at most one
// buffer per read that was in flight at the busiest moment since the last
// two garbage collections — at most MaxPooledItems items each — and the
// collector empties it when reads stop.
const MaxPooledItems = 1 << 15

var itemBufs = sync.Pool{New: func() any { return new([]Item) }}

// GetItems lends an empty result buffer from the process-wide item pool:
// append to *buf (AppendItem, or a Request.Buf the answer extends), then
// hand the holder back with PutItems once nothing reads its items.
func GetItems() *[]Item { return itemBufs.Get().(*[]Item) }

// PutItems returns a lent buffer to the pool, emptied. items is what became
// of it — *buf extended, or an array grown from it — and nil keeps *buf's
// own array. An array grown past MaxPooledItems is dropped instead. The
// caller must not touch the items again: the next GetItems may hand them to
// another reader.
func PutItems(buf *[]Item, items []Item) {
	if items != nil {
		*buf = items
	}
	if cap(*buf) > MaxPooledItems {
		*buf = nil
	} else {
		*buf = (*buf)[:0]
	}
	itemBufs.Put(buf)
}

// Index is the common interface of all in-memory spatial indexes.
type Index interface {
	// Name returns a short human-readable index name ("rtree", "grid", ...).
	Name() string
	// Len returns the number of items currently indexed.
	Len() int
	// Insert adds an item.
	Insert(id int64, box geom.AABB)
	// Delete removes an item previously inserted with the given box. It
	// reports whether the item was found.
	Delete(id int64, box geom.AABB) bool
	// Update moves an item from oldBox to newBox.
	Update(id int64, oldBox, newBox geom.AABB)
	// Search invokes fn for every item whose box intersects query. fn must
	// not modify the index. The traversal order is unspecified.
	Search(query geom.AABB, fn func(Item) bool)
	// KNN returns the ids of the k items whose boxes are nearest to p
	// (by minimum box distance), closest first. Fewer than k are returned if
	// the index holds fewer items.
	KNN(p geom.Vec3, k int) []Item
	// Counters returns the instrumentation counters of the index, or nil if
	// the index is not instrumented.
	Counters() *instrument.Counters
}

// BulkLoader is implemented by indexes that support bulk construction, which
// the paper identifies as the efficient alternative to per-element updates
// when most of the dataset changes.
type BulkLoader interface {
	// BulkLoad replaces the index contents with the given items.
	BulkLoad(items []Item)
}

// ParallelBulkLoader is implemented by indexes whose bulk construction can be
// decomposed into concurrently-built spatial partitions (cell stripes for
// grids, octants for octrees).
// ParallelBulkLoad with workers <= 1 must be semantically identical to
// BulkLoad; with more workers it must produce an index answering every query
// exactly like its sequential counterpart.
type ParallelBulkLoader interface {
	BulkLoader
	// ParallelBulkLoad replaces the index contents with the given items using
	// up to the given number of goroutines.
	ParallelBulkLoad(items []Item, workers int)
}

// Preparer is implemented by indexes that defer maintenance work (lazy
// rebuilds, buffered updates) until the next read. PrepareForRead forces the
// pending maintenance so that subsequent Search/KNN calls are read-only and
// therefore safe to issue from multiple goroutines at once.
type Preparer interface {
	PrepareForRead()
}

// SearchAll collects all results of a range query into a slice (helper for
// tests and experiments; production code should prefer the callback form).
func SearchAll(ix Index, query geom.AABB) []Item {
	var out []Item
	ix.Search(query, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// SearchIDs collects the ids of all results of a range query.
func SearchIDs(ix Index, query geom.AABB) []int64 {
	var out []int64
	ix.Search(query, func(it Item) bool {
		out = append(out, it.ID)
		return true
	})
	return out
}

// LinearScan is the baseline "no index" strategy the paper repeatedly
// compares against: a flat slice of items scanned in full for every query.
// Updates are O(1) via an id->position map; queries are O(n).
type LinearScan struct {
	items    []Item
	position map[int64]int
	counters instrument.Counters
}

// NewLinearScan returns an empty linear-scan baseline.
func NewLinearScan() *LinearScan {
	return &LinearScan{position: make(map[int64]int)}
}

// Name implements Index.
func (s *LinearScan) Name() string { return "scan" }

// Len implements Index.
func (s *LinearScan) Len() int { return len(s.items) }

// Counters implements Index.
func (s *LinearScan) Counters() *instrument.Counters { return &s.counters }

// Insert implements Index.
func (s *LinearScan) Insert(id int64, box geom.AABB) {
	s.position[id] = len(s.items)
	s.items = append(s.items, Item{ID: id, Box: box})
	s.counters.AddUpdates(1)
}

// Delete implements Index.
func (s *LinearScan) Delete(id int64, _ geom.AABB) bool {
	i, ok := s.position[id]
	if !ok {
		return false
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.position[s.items[i].ID] = i
	s.items = s.items[:last]
	delete(s.position, id)
	s.counters.AddUpdates(1)
	return true
}

// Update implements Index.
func (s *LinearScan) Update(id int64, _, newBox geom.AABB) {
	if i, ok := s.position[id]; ok {
		s.items[i].Box = newBox
	} else {
		s.Insert(id, newBox)
	}
	s.counters.AddUpdates(1)
}

// Search implements Index.
func (s *LinearScan) Search(query geom.AABB, fn func(Item) bool) {
	s.counters.AddElementsTouched(int64(len(s.items)))
	s.counters.AddElemIntersectTests(int64(len(s.items)))
	for _, it := range s.items {
		if query.Intersects(it.Box) {
			s.counters.AddResults(1)
			if !fn(it) {
				return
			}
		}
	}
}

// KNN implements Index.
func (s *LinearScan) KNN(p geom.Vec3, k int) []Item {
	if k <= 0 || len(s.items) == 0 {
		return nil
	}
	s.counters.AddElementsTouched(int64(len(s.items)))
	type cand struct {
		it Item
		d2 float64
	}
	cands := make([]cand, 0, len(s.items))
	for _, it := range s.items {
		cands = append(cands, cand{it: it, d2: it.Box.Distance2ToPoint(p)})
	}
	// Partial selection sort for the k smallest (k is small in practice).
	if k > len(cands) {
		k = len(cands)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].d2 < cands[best].d2 {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := make([]Item, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].it
	}
	return out
}

// BulkLoad implements BulkLoader.
func (s *LinearScan) BulkLoad(items []Item) {
	s.items = append(s.items[:0], items...)
	s.position = make(map[int64]int, len(items))
	for i, it := range items {
		s.position[it.ID] = i
	}
}

var _ Index = (*LinearScan)(nil)
var _ BulkLoader = (*LinearScan)(nil)
