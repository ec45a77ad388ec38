package index

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"spatialsim/internal/geom"
)

// FuzzMergeNearest checks Nearest against sort-everything-then-cut: every
// input byte is one item — a unit cube on a small grid, so many items lie at
// the same distance from the point — in one of four runs. Each run is
// ascending by distance with its ties in a scrambled ID order, as a KNNer
// may return them. Folding the runs in either order, through a pooled
// merger each time, must give the k smallest by (squared distance, ID), for
// every k from 1 to past the total.
func FuzzMergeNearest(f *testing.F) {
	f.Add([]byte{0, 1, 8, 9, 64, 65, 72, 73, 128, 129, 136, 192, 200, 255}, uint16(5))
	f.Add([]byte{27, 27 | 64, 27 | 128, 27 | 192, 28, 35, 36, 19, 20}, uint16(3))
	f.Add([]byte{0, 0, 0, 0, 64, 64, 64}, uint16(40))
	f.Fuzz(func(t *testing.T, data []byte, kb uint16) {
		p := geom.V(3, 3, 0.5)
		var runs [4][]Item
		var all []Item
		for i, b := range data {
			x, y := float64(b&7), float64(b>>3&7)
			it := Item{ID: int64(i), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
			runs[b>>6] = append(runs[b>>6], it)
			all = append(all, it)
		}
		d2 := func(it Item) float64 { return it.Box.Distance2ToPoint(p) }
		scramble := func(id int64) uint32 { return uint32(id) * 2654435761 }
		for _, run := range runs {
			slices.SortFunc(run, func(a, b Item) int {
				return cmp.Or(cmp.Compare(d2(a), d2(b)), cmp.Compare(scramble(a.ID), scramble(b.ID)))
			})
		}
		slices.SortFunc(all, func(a, b Item) int { return cmp.Or(cmp.Compare(d2(a), d2(b)), cmp.Compare(a.ID, b.ID)) })
		k := int(kb)%(len(all)+3) + 1
		want := all[:min(k, len(all))]
		wantKth := math.Inf(1)
		if len(all) >= k {
			wantKth = d2(all[k-1])
		}

		for _, order := range [][4]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
			m := GetNearest(p, k)
			for _, r := range order {
				m.Add(slices.Clone(runs[r]))
			}
			got := m.AppendTo(nil)
			kth := m.Kth()
			PutNearest(m)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d runs %v: got %v, want %v", k, order, got, want)
			}
			if kth != wantKth {
				t.Fatalf("k=%d runs %v: Kth %v, want %v", k, order, kth, wantKth)
			}
		}
	})
}
