package index

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"spatialsim/internal/geom"
)

// Nearest folds runs of kNN candidates — each ascending by distance to one
// point, as KNNer returns them — into the k nearest, in (squared distance,
// ID) order. IDs are unique, so the order is total: the same candidates give
// the same answer whatever runs they came in and however each run ordered
// its ties. Every candidate's distance is computed once. It is the one top-k
// merge of the store's shard fan-out and of the cluster's node gather.
type Nearest struct {
	p     geom.Vec3
	k     int
	items []Item    // the running k nearest
	d2    []float64 // their squared distances
	runD  []float64 // the distances of the run being added
	next  []Item    // merge output, swapped with items
	nextD []float64
}

var nearestPool = sync.Pool{New: func() any { return new(Nearest) }}

// GetNearest lends an empty merger for the k nearest to p from a
// process-wide pool; hand it back with PutNearest.
func GetNearest(p geom.Vec3, k int) *Nearest {
	m := nearestPool.Get().(*Nearest)
	m.p, m.k = p, k
	return m
}

// PutNearest returns a merger to the pool, emptied. A merger grown past
// MaxPooledItems is dropped instead.
func PutNearest(m *Nearest) {
	if cap(m.items) > MaxPooledItems || cap(m.next) > MaxPooledItems {
		return
	}
	m.items, m.d2, m.next, m.nextD = m.items[:0], m.d2[:0], m.next[:0], m.nextD[:0]
	nearestPool.Put(m)
}

// Kth returns the squared distance of the k-th nearest so far, +Inf while
// fewer than k are held: a candidate farther than it cannot enter.
func (m *Nearest) Kth() float64 {
	if len(m.items) < m.k {
		return math.Inf(1)
	}
	return m.d2[m.k-1]
}

// Add folds one run into the k nearest. run must be ascending by distance
// to the point; Add sorts its equal-distance groups by ID in place and
// keeps no reference to it.
func (m *Nearest) Add(run []Item) {
	m.runD = m.runD[:0]
	for _, it := range run {
		m.runD = append(m.runD, it.Box.Distance2ToPoint(m.p))
	}
	d := m.runD
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && d[j] == d[i] {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(run[i:j], func(a, b Item) int { return cmp.Compare(a.ID, b.ID) })
		}
		i = j
	}
	m.next, m.nextD = m.next[:0], m.nextD[:0]
	i, j := 0, 0
	for len(m.next) < m.k && (i < len(m.items) || j < len(run)) {
		if j == len(run) || (i < len(m.items) && (m.d2[i] < d[j] || (m.d2[i] == d[j] && m.items[i].ID < run[j].ID))) {
			m.next, m.nextD = append(m.next, m.items[i]), append(m.nextD, m.d2[i])
			i++
		} else {
			m.next, m.nextD = append(m.next, run[j]), append(m.nextD, d[j])
			j++
		}
	}
	m.items, m.next = m.next, m.items
	m.d2, m.nextD = m.nextD, m.d2
}

// AppendTo appends the k nearest so far to buf, closest first, and returns
// the extended slice.
func (m *Nearest) AppendTo(buf []Item) []Item { return append(buf, m.items...) }
