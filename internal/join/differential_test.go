package join_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
)

// joinShape is one degenerate input of the differential join test: a
// self-join set (the binary join splits it in two with disjoint IDs) and the
// eps it is joined at.
type joinShape struct {
	name  string
	items []index.Item
	eps   float64
}

func boxItems(boxes []geom.AABB) []index.Item {
	items := make([]index.Item, len(boxes))
	for i, b := range boxes {
		items[i] = index.Item{ID: int64(i), Box: b}
	}
	return items
}

// degenerateJoinShapes are the inputs where a grid join's partitioning is
// most easily wrong: every element in one cell, zero-extent axes, boxes
// touching at exactly eps, one cell for the whole universe, coordinates where
// the float guard is a few ulps, and the smallest joinable set.
func degenerateJoinShapes() []joinShape {
	r := rand.New(rand.NewSource(51))
	randBoxes := func(n int, offset, side, maxHalf float64) []geom.AABB {
		boxes := make([]geom.AABB, n)
		for i := range boxes {
			c := geom.V(r.Float64()*side, r.Float64()*side, r.Float64()*side).Add(geom.V(offset, offset, offset))
			h := geom.V(r.Float64()*maxHalf, r.Float64()*maxHalf, r.Float64()*maxHalf)
			boxes[i] = geom.AABBFromCenter(c, h)
		}
		return boxes
	}

	var identical, coplanar, lattice, touching []geom.AABB
	for i := 0; i < 40; i++ {
		identical = append(identical, geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2)))
	}
	for _, b := range randBoxes(120, 0, 10, 0.6) {
		b.Min.Z, b.Max.Z = 3, 3 // flat in one plane
		coplanar = append(coplanar, b)
	}
	for i := 0; i < 150; i++ { // points on a coarse lattice: many coincide
		p := geom.V(float64(r.Intn(5)), float64(r.Intn(5)), float64(r.Intn(4)))
		lattice = append(lattice, geom.PointAABB(p))
	}
	for i := 0; i < 60; i++ { // unit cubes in a row, exactly eps = 0.5 apart
		x := float64(i) * 1.5
		touching = append(touching, geom.NewAABB(geom.V(x, 0, 0), geom.V(x+1, 1, 1)))
	}
	return []joinShape{
		{"uniform", boxItems(randBoxes(200, 0, 20, 0.7)), 0.6},
		{"identical", boxItems(identical), 0},
		{"coplanar", boxItems(coplanar), 0.3},
		{"points-eps0", boxItems(lattice), 0},
		{"touching-at-eps", boxItems(touching), 0.5},
		{"eps-beyond-universe", boxItems(randBoxes(60, 0, 5, 0.5)), 1000},
		{"near-1e7", boxItems(randBoxes(150, 1e7, 20, 0.8)), 0.7},
		{"n=2", boxItems([]geom.AABB{geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1)), geom.NewAABB(geom.V(1.2, 0, 0), geom.V(2, 1, 1))}), 0.25},
	}
}

// requireCanonical fails unless pairs are in strictly increasing (A, B)
// order — which also rules out duplicates, now that no gather dedups.
func requireCanonical(t *testing.T, what string, pairs []join.Pair) {
	t.Helper()
	for i := 1; i < len(pairs); i++ {
		p, q := pairs[i-1], pairs[i]
		if p == q {
			t.Fatalf("%s: duplicate pair %+v at %d", what, q, i)
		}
		if q.A < p.A || (q.A == p.A && q.B < p.B) {
			t.Fatalf("%s: pair %+v after %+v is out of canonical order", what, q, p)
		}
	}
}

// TestJoinDifferential is the grid rebuild's safety net: all five
// algorithms, self and binary, sequential (Plan.Run) and on 1, 2 and 4
// workers, at every grid resolution (data-sized, 1, 2, 7 per axis), must
// return exactly the nested loop's pairs in strictly increasing (A, B)
// order on every degenerate shape.
func TestJoinDifferential(t *testing.T) {
	algos := []join.Algorithm{join.AlgoNestedLoop, join.AlgoPlaneSweep, join.AlgoGrid, join.AlgoRTree, join.AlgoTOUCH}
	for _, sh := range degenerateJoinShapes() {
		opts := join.Options{Eps: sh.eps}
		half := len(sh.items) / 2
		as := sh.items[:half]
		bs := append([]index.Item(nil), sh.items[half:]...)
		for i := range bs {
			bs[i].ID += 1 << 40
		}
		selfWant := join.DedupPairs(join.SelfNestedLoop(sh.items, opts))
		binWant := join.DedupPairs(join.NestedLoop(as, bs, opts))
		if len(selfWant) == 0 {
			t.Fatalf("%s: ground truth empty; shape joins nothing", sh.name)
		}
		for _, algo := range algos {
			cellsList := []int{0}
			if algo == join.AlgoGrid {
				cellsList = []int{0, 1, 2, 7}
			}
			for _, cells := range cellsList {
				pl := join.Planner{Grid: join.GridJoinConfig{CellsPerDim: cells}}
				for _, self := range []bool{true, false} {
					var p *join.Plan
					want := selfWant
					if self {
						p = pl.PlanSelfWith(algo, sh.items, opts)
					} else {
						p = pl.PlanWith(algo, as, bs, opts)
						want = binWant
					}
					name := fmt.Sprintf("%s/%v/cells=%d/self=%v", sh.name, algo, cells, self)
					got := p.Run()
					requireCanonical(t, name+"/seq", got)
					if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("%s/seq: %d pairs, want %d", name, len(got), len(want))
					}
					for _, w := range []int{1, 2, 4} {
						got, _ := p.RunParallel(context.Background(), w)
						requireCanonical(t, fmt.Sprintf("%s/w=%d", name, w), got)
						if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
							t.Fatalf("%s/w=%d: %d pairs, want %d", name, w, len(got), len(want))
						}
					}
					p.Close()
				}
			}
		}
	}
}
