package join

import (
	"math"
	"reflect"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// TestGridCellsTotal: the data-sized grid must be 1..maxCellsPerAxis cells
// per axis and at most cellsPerElement·n cells overall for any input —
// non-finite or huge eps, zero extents, degenerate universes, n = 2 —
// because the per-cell counters are allocated from it.
func TestGridCellsTotal(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	universes := []geom.AABB{
		geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100)),
		geom.NewAABB(geom.V(0, 0, 0), geom.V(1e-9, 1e-9, 1e-9)),       // identical points
		geom.NewAABB(geom.V(0, 0, 5), geom.V(1000, 1000, 5)),          // flat
		geom.NewAABB(geom.V(-inf, -inf, -inf), geom.V(inf, inf, inf)), // expanded by +Inf eps
		geom.NewAABB(geom.V(nan, nan, nan), geom.V(nan, nan, nan)),    // expanded by NaN eps
		geom.NewAABB(geom.V(-1e300, -1e300, -1e300), geom.V(1e300, 1e300, 1e300)),
	}
	extents := []geom.Vec3{{}, geom.V(0.5, 0.5, 0.5), geom.V(0, 1e-300, 3), geom.V(nan, 1, inf)}
	for _, u := range universes {
		for _, ext := range extents {
			for _, eps := range []float64{0, 0.3, -1, 1e300, inf, -inf, nan} {
				for _, n := range []int{0, 1, 2, 1000, 200000} {
					cells := gridCells(u, ext, eps, n)
					total := 1
					for axis, c := range cells {
						if c < 1 || c > maxCellsPerAxis {
							t.Fatalf("gridCells(%v, %v, %v, %d) axis %d = %d cells", u, ext, eps, n, axis, c)
						}
						total *= c
					}
					if total > max(cellsPerElement*n, 1) {
						t.Fatalf("gridCells(%v, %v, %v, %d) = %v: %d cells over the cap", u, ext, eps, n, cells, total)
					}
				}
			}
		}
	}
	// The sizing rule itself: ample elements, 100-unit universe, cells
	// twice as wide as extent + eps.
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	if got := gridCells(u, geom.V(0.2, 0.7, 2.2), 0.3, 1<<20); got != [3]int{100, 50, 20} {
		t.Fatalf("data-sized cells = %v, want [100 50 20]", got)
	}
}

// TestGridJoinNonFiniteEps: planning and running a grid join with NaN,
// infinite or huge eps, or over zero-extent points, must not panic, must
// stay within the cell cap, and must agree with the nested loop under the
// same match rule.
func TestGridJoinNonFiniteEps(t *testing.T) {
	pts := []index.Item{
		{ID: 1, Box: geom.PointAABB(geom.V(3, 3, 3))},
		{ID: 2, Box: geom.PointAABB(geom.V(3, 3, 3))},
	}
	pair := []index.Item{
		{ID: 1, Box: geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1))},
		{ID: 2, Box: geom.NewAABB(geom.V(5, 5, 5), geom.V(6, 6, 6))},
	}
	for _, items := range [][]index.Item{pts, pair, randomItems(50, 44, geom.Vec3{})} {
		for _, eps := range []float64{math.NaN(), math.Inf(1), 1e300, 0} {
			opts := Options{Eps: eps}
			p := Planner{}.PlanSelfWith(AlgoGrid, items, opts)
			if c := p.Cells(); c < 1 || c > max(cellsPerElement*len(items), 1) {
				t.Fatalf("eps=%v n=%d: %d cells", eps, len(items), c)
			}
			got := p.Run()
			p.Close()
			if want := DedupPairs(SelfNestedLoop(items, opts)); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("eps=%v n=%d: grid %v, nested loop %v", eps, len(items), got, want)
			}
		}
	}
}

// decodeJoinInput turns fuzz bytes into a grid resolution (0 = data-sized),
// an eps and up to 64 boxes on a coarse lattice: 6 bytes per box, a corner
// in 1/16 steps and an extent in 1/8 steps that is often zero, so coincident
// points, shared faces and gaps of exactly eps are common.
func decodeJoinInput(data []byte) (cells int, eps float64, items []index.Item) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	cells, eps = int(data[0]%9), float64(data[1]%64)/16
	data = data[2:]
	for i := 0; i+6 <= len(data) && len(items) < 64; i += 6 {
		b := data[i : i+6]
		lo := geom.V(float64(b[0])/16, float64(b[1])/16, float64(b[2])/16)
		ext := geom.V(float64(b[3]%16)/8, float64(b[4]%16)/8, float64(b[5]%16)/8)
		items = append(items, index.Item{ID: int64(len(items)), Box: geom.NewAABB(lo, lo.Add(ext))})
	}
	return cells, eps, items
}

// FuzzSelfJoinGrid checks the grid join against the nested loop — self and
// binary (the set split in two) — at fuzzed resolutions, eps and boxes: same
// pairs, strictly increasing (A, B) order.
func FuzzSelfJoinGrid(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 0, 16, 16, 16, 0, 0, 0, 16, 16, 16})                      // identical boxes
	f.Add([]byte{1, 0, 10, 10, 10, 0, 0, 0, 10, 10, 10, 0, 0, 0, 20, 20, 20, 0, 0, 0}) // coincident points, eps 0
	f.Add([]byte{7, 16, 0, 0, 0, 8, 8, 8, 24, 0, 0, 8, 8, 8, 48, 0, 0, 8, 8, 8})       // a row exactly eps apart
	f.Add([]byte{2, 63, 255, 255, 255, 15, 15, 15, 0, 0, 0, 0, 0, 0, 128, 3, 77, 1, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		cells, eps, items := decodeJoinInput(data)
		if len(items) < 2 {
			t.Skip("fewer than two boxes")
		}
		opts := Options{Eps: eps}
		pl := Planner{Grid: GridJoinConfig{CellsPerDim: cells}}
		check := func(what string, p *Plan, want []Pair) {
			got := p.Run()
			p.Close()
			for i := 1; i < len(got); i++ {
				if comparePairs(got[i-1], got[i]) >= 0 {
					t.Fatalf("%s: pair %+v after %+v (cells=%d eps=%v)", what, got[i], got[i-1], cells, eps)
				}
			}
			if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: grid %v, nested loop %v (cells=%d eps=%v)", what, got, want, cells, eps)
			}
		}
		check("self", pl.PlanSelfWith(AlgoGrid, items, opts), DedupPairs(SelfNestedLoop(items, opts)))
		as, bs := items[:len(items)/2], items[len(items)/2:]
		check("binary", pl.PlanWith(AlgoGrid, as, bs, opts), DedupPairs(NestedLoop(as, bs, opts)))
	})
}
