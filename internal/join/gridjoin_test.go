package join

import (
	"math"
	"reflect"
	"testing"

	"spatialsim/internal/datagen"
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
			p := Planner{}.PlanSelf(items, opts)
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
		check("self", pl.PlanSelf(items, opts), DedupPairs(SelfNestedLoop(items, opts)))
		as, bs := items[:len(items)/2], items[len(items)/2:]
		check("binary", pl.Plan(as, bs, opts), DedupPairs(NestedLoop(as, bs, opts)))
	})
}

// assignSerial is the one-pass counting sort assign was before it ran in
// chunks on the pool: count entries per cell, prefix-sum, scatter in element
// order. It is the reference the chunked assign must reproduce byte for
// byte.
func assignSerial(p *partitioner, items []index.Item) (start, idxs []int32, masks []uint8) {
	nc := p.cells()
	start = make([]int32, nc+1)
	boxes := make([]cellBox, len(items))
	for i := range items {
		b := &items[i].Box
		cb := cellBox{
			lo: [3]uint8{p.coordAxis(b.Min.X-p.h, 0), p.coordAxis(b.Min.Y-p.h, 1), p.coordAxis(b.Min.Z-p.h, 2)},
			hi: [3]uint8{p.coordAxis(b.Max.X+p.h, 0), p.coordAxis(b.Max.Y+p.h, 1), p.coordAxis(b.Max.Z+p.h, 2)},
		}
		boxes[i] = cb
		for z := cb.lo[2]; z <= cb.hi[2]; z++ {
			for y := cb.lo[1]; y <= cb.hi[1]; y++ {
				for x := int(cb.lo[0]); x <= int(cb.hi[0]); x++ {
					start[p.linear(uint8(x), y, z)+1]++
				}
			}
		}
	}
	for c := 1; c <= nc; c++ {
		start[c] += start[c-1]
	}
	idxs = make([]int32, start[nc])
	masks = make([]uint8, start[nc])
	cursor := append([]int32(nil), start[:nc]...)
	for i, cb := range boxes {
		for z := cb.lo[2]; z <= cb.hi[2]; z++ {
			for y := cb.lo[1]; y <= cb.hi[1]; y++ {
				for x := int(cb.lo[0]); x <= int(cb.hi[0]); x++ {
					c := p.linear(uint8(x), y, z)
					var m uint8
					if uint8(x) == cb.lo[0] {
						m |= 1
					}
					if y == cb.lo[1] {
						m |= 2
					}
					if z == cb.lo[2] {
						m |= 4
					}
					idxs[cursor[c]], masks[cursor[c]] = int32(i), m
					cursor[c]++
				}
			}
		}
	}
	return start, idxs, masks
}

// TestAssignChunkedMatchesSerial: the chunked assign's CSR (start, idxs,
// masks) equals the serial counting sort's for 1, 2, 3 and 8 chunks, on
// uniform and clustered data, a forced fine grid, and fewer items than
// chunks; and the validity flag follows the boxes.
func TestAssignChunkedMatchesSerial(t *testing.T) {
	d := datagen.GenerateClustered(datagen.ClusteredConfig{N: 3000, Clusters: 6,
		Universe: geom.NewAABB(geom.V(0, 0, 0), geom.V(60, 60, 60)), Seed: 5})
	clustered := make([]index.Item, d.Len())
	for i := range d.Elements {
		clustered[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	for _, tc := range []struct {
		name  string
		items []index.Item
		cells int
	}{
		{"uniform", randomItems(3000, 71, geom.Vec3{}), 0},
		{"clustered", clustered, 0},
		{"fine", randomItems(500, 72, geom.Vec3{}), 40},
		{"tiny", randomItems(5, 73, geom.Vec3{}), 0},
	} {
		pl := Planner{Grid: GridJoinConfig{CellsPerDim: tc.cells}}
		plan := pl.PlanSelf(tc.items, Options{Eps: 0.5})
		part := plan.part
		start, idxs, masks := assignSerial(part, tc.items)
		for _, k := range []int{1, 2, 3, 8} {
			var asn cellAssignment
			part.assignChunked(tc.items, &asn, k)
			if !reflect.DeepEqual(asn.start, start) || !reflect.DeepEqual(asn.idxs, idxs) || !reflect.DeepEqual(asn.masks, masks) {
				t.Fatalf("%s, %d chunks: the CSR differs from the serial assign's", tc.name, k)
			}
			if !asn.valid {
				t.Fatalf("%s, %d chunks: valid boxes reported invalid", tc.name, k)
			}
		}
		if !reflect.DeepEqual(part.a.start, start) || !reflect.DeepEqual(part.a.idxs, idxs) {
			t.Fatalf("%s: the plan's own assign differs from the serial one", tc.name)
		}
		bad := append([]index.Item(nil), tc.items...)
		bad[len(bad)-1].Box.Max.Z = math.Inf(1)
		var asn cellAssignment
		part.assignChunked(bad, &asn, 3)
		if asn.valid {
			t.Fatalf("%s: an infinite corner was not flagged", tc.name)
		}
		plan.Close()
	}
}

// TestAssignKeepsWorkerBudget: the grid's cell assignment splits into no
// more chunks — goroutines — than Planner.Workers allows, so a join asked to
// run on one goroutine prepares its plan on one too.
func TestAssignKeepsWorkerBudget(t *testing.T) {
	const n = 8 * assignChunkMin
	for _, tc := range []struct{ workers, want int }{{1, 1}, {3, 3}, {64, 8}} {
		if got := assignChunks(n, 64, tc.workers); got != tc.want {
			t.Fatalf("assignChunks(%d items, workers=%d) = %d chunks, want %d", n, tc.workers, got, tc.want)
		}
	}
	items := randomItems(n, 74, geom.Vec3{})
	for _, workers := range []int{1, 4} {
		plan := Planner{Workers: workers}.PlanSelf(items, Options{Eps: 0.1})
		nc := plan.part.cells()
		if got := len(plan.part.a.counts) / nc; got > workers {
			t.Fatalf("Planner{Workers: %d}: the assign ran in %d chunks", workers, got)
		}
		plan.Close()
	}
}

// FuzzGridCompareMatchesWithin pins the grid join's branch-free box test to
// Options.within over raw float64 bits — NaN, ±Inf, −0 and subnormal
// corners and eps included: wherever runGridTask would use it (both boxes
// valid), gridGap2 > Eps² must reject exactly the pairs within rejects; and
// a grid self-join of the two boxes, which picks the test from the boxes,
// must agree with the nested loop.
func FuzzGridCompareMatchesWithin(f *testing.F) {
	bits := math.Float64bits
	nan, inf, sub := bits(math.NaN()), bits(math.Inf(1)), uint64(1)
	f.Add(bits(0), bits(0), bits(0), bits(1), bits(1), bits(1), bits(1.5), bits(0), bits(0), bits(2), bits(1), bits(1), bits(0.5))
	f.Add(bits(0), bits(0), bits(0), bits(1), bits(1), bits(1), bits(1), bits(1), bits(1), bits(2), bits(2), bits(2), bits(0))
	f.Add(bits(-1e308), bits(0), bits(0), bits(-1e308), bits(0), bits(0), bits(1e308), bits(0), bits(0), bits(1e308), bits(0), bits(0), inf)
	f.Add(sub, sub, sub, sub, sub, sub, bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), sub)
	f.Add(bits(math.Copysign(0, -1)), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0), bits(0))
	f.Add(bits(0), bits(0), bits(0), inf, bits(1), bits(1), inf, bits(0), bits(0), inf, bits(1), bits(1), bits(3))
	f.Add(nan, bits(0), bits(0), bits(1), bits(1), bits(1), bits(0), bits(0), bits(0), bits(1), bits(1), bits(1), nan)
	f.Add(bits(5), bits(0), bits(0), bits(0), bits(1), bits(1), bits(3), bits(0), bits(0), bits(1), bits(1), bits(1), bits(1))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5, e uint64) {
		fl := math.Float64frombits
		box := func(v0, v1, v2, v3, v4, v5 uint64) geom.AABB {
			return geom.AABB{Min: geom.V(fl(v0), fl(v1), fl(v2)), Max: geom.V(fl(v3), fl(v4), fl(v5))}
		}
		a := index.Item{ID: 1, Box: box(a0, a1, a2, a3, a4, a5)}
		b := index.Item{ID: 2, Box: box(b0, b1, b2, b3, b4, b5)}
		opts := Options{Eps: fl(e)}
		want := opts.within(&a, &b)
		if validBox(&a.Box) != a.Box.IsValid() || validBox(&b.Box) != b.Box.IsValid() {
			t.Fatalf("a=%v b=%v: validBox disagrees with IsValid", a.Box, b.Box)
		}
		if validBox(&a.Box) && validBox(&b.Box) {
			if got := !(gridGap2(&a.Box, &b.Box) > opts.Eps*opts.Eps); got != want {
				t.Fatalf("a=%v b=%v eps=%v: gridGap2 decides %v, within %v", a.Box, b.Box, opts.Eps, got, want)
			}
		}
		p := Planner{}.PlanSelf([]index.Item{a, b}, opts)
		got := p.Run()
		p.Close()
		if (len(got) == 1) != want || len(got) > 1 {
			t.Fatalf("a=%v b=%v eps=%v: grid join %v, within %v", a.Box, b.Box, opts.Eps, got, want)
		}
	})
}
