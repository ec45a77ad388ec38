package main

import (
	"fmt"
	"math"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
)

// oracle is the generator's own copy of the truth: the loaded dataset behind
// an R-Tree it froze itself, plus — on the timestep workload — every box an
// item was moved to, keyed by the epoch that published the move. It answers
// "what should a reply at epoch E contain" without asking the server.
type oracle struct {
	base  []index.Item // indexed by ID (IDs are dense from 0)
	tree  *rtree.Compact
	hist  [][]histEnt // per ID, ascending epoch; nil for items never moved
	moves int         // most moves recorded for a single item
}

type histEnt struct {
	epoch uint64
	box   geom.AABB
}

func newOracle(items []index.Item) *oracle {
	return &oracle{
		base: items,
		tree: rtree.FreezeItems(items, rtree.Config{}),
		hist: make([][]histEnt, len(items)),
	}
}

// record notes that epoch published the given new boxes.
func (o *oracle) record(epoch uint64, moved []index.Item) {
	for _, it := range moved {
		o.hist[it.ID] = append(o.hist[it.ID], histEnt{epoch: epoch, box: it.Box})
		if n := len(o.hist[it.ID]); n > o.moves {
			o.moves = n
		}
	}
}

// boxAt is the box of item id as of epoch.
func (o *oracle) boxAt(id int64, epoch uint64) geom.AABB {
	h := o.hist[id]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].epoch <= epoch {
			return h[i].box
		}
	}
	return o.base[id].Box
}

// rangeAt returns the IDs whose box at epoch intersects q. An item moves at
// most moveStep per recorded move, so searching the unmoved tree with q grown
// by the largest total drift finds every candidate.
func (o *oracle) rangeAt(q geom.AABB, epoch uint64) map[int64]geom.AABB {
	out := make(map[int64]geom.AABB)
	o.tree.RangeVisit(q.Expand(float64(o.moves)*moveStep), func(it index.Item) bool {
		if b := o.boxAt(it.ID, epoch); b.Intersects(q) {
			out[it.ID] = b
		}
		return true
	})
	return out
}

// checkItems verifies that every replied item exists with exactly the box it
// had at the reply's epoch, and that no item is replied twice.
func (o *oracle) checkItems(rep queryReply) (map[int64]bool, error) {
	seen := make(map[int64]bool, len(rep.Items))
	for _, ij := range rep.Items {
		if ij.ID < 0 || ij.ID >= int64(len(o.base)) {
			return nil, fmt.Errorf("unknown item id %d", ij.ID)
		}
		if seen[ij.ID] {
			return nil, fmt.Errorf("item %d replied twice", ij.ID)
		}
		seen[ij.ID] = true
		if want := o.boxAt(ij.ID, rep.Epoch); ij.item().Box != want {
			return nil, fmt.Errorf("item %d: box %v, want %v at epoch %d", ij.ID, ij.item().Box, want, rep.Epoch)
		}
	}
	return seen, nil
}

// verify checks one sampled reply body against the truth at the epoch the
// reply names.
func (o *oracle) verify(r request, body []byte) error {
	rep, err := decodeQueryReply(body)
	if err != nil {
		return err
	}
	seen, err := o.checkItems(rep)
	if err != nil {
		return err
	}
	switch r.class {
	case classRange:
		truth := o.rangeAt(r.box, rep.Epoch)
		if len(truth) != len(seen) {
			return fmt.Errorf("range: %d items, truth has %d", len(seen), len(truth))
		}
		for id := range seen {
			if _, ok := truth[id]; !ok {
				return fmt.Errorf("range: item %d is not in the truth", id)
			}
		}
	case classScan:
		truth := o.rangeAt(r.box, rep.Epoch)
		want := len(truth)
		if want > scanLim {
			want = scanLim
		}
		if len(seen) != want {
			return fmt.Errorf("scan: %d items, want min(%d, %d)", len(seen), scanLim, len(truth))
		}
		for id := range seen {
			if _, ok := truth[id]; !ok {
				return fmt.Errorf("scan: item %d is not in the truth", id)
			}
		}
	case classKNN:
		want := knnK
		if want > len(o.base) {
			want = len(o.base)
		}
		if len(rep.Items) != want {
			return fmt.Errorf("knn: %d items, want %d", len(rep.Items), want)
		}
		// Same k distances as the truth: the replied distances ascend, and
		// nothing outside the reply is strictly nearer than its k-th item.
		prev := -1.0
		for _, ij := range rep.Items {
			d := ij.item().Box.Distance2ToPoint(r.point)
			if d < prev {
				return fmt.Errorf("knn: distances not ascending")
			}
			prev = d
		}
		reach := math.Sqrt(prev)
		ball := geom.AABBFromCenter(r.point, geom.V(reach, reach, reach))
		for id, b := range o.rangeAt(ball, rep.Epoch) {
			if !seen[id] && b.Distance2ToPoint(r.point) < prev {
				return fmt.Errorf("knn: item %d is nearer than the k-th reply", id)
			}
		}
	default:
		return fmt.Errorf("verify: unexpected class %v", r.class)
	}
	return nil
}

// joinCount is the number of unordered item pairs within joinEps of each
// other, computed the slow way: one range probe per item over the oracle's
// own tree.
func (o *oracle) joinCount() int {
	pairs := 0
	eps2 := joinEps * joinEps
	for i := range o.base {
		a := o.base[i]
		o.tree.RangeVisit(a.Box.Expand(joinEps), func(b index.Item) bool {
			if b.ID > a.ID && a.Box.Distance2(b.Box) <= eps2 {
				pairs++
			}
			return true
		})
	}
	return pairs
}

// verifyAll checks that a full-universe reply holds exactly every item with
// the last box recorded for it: the durability check after a crash.
func (o *oracle) verifyAll(rep queryReply) error {
	if len(rep.Items) != len(o.base) {
		return fmt.Errorf("%d items after restart, want %d", len(rep.Items), len(o.base))
	}
	rep.Epoch = math.MaxUint64
	_, err := o.checkItems(rep)
	return err
}
