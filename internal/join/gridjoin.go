package join

import (
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// GridJoinConfig configures the PBSM-style grid join.
type GridJoinConfig struct {
	// CellsPerDim is the grid resolution along every axis, clamped to
	// 1..128; 0 sizes the cells from the data (see gridCells): per axis, a
	// cell side of twice the mean element extent plus Eps, with at most one
	// cell per element overall.
	CellsPerDim int
}

// GridJoin is the partition-based spatial-merge join (Patel & DeWitt's PBSM
// adapted to memory, as the paper suggests): both inputs are partitioned into
// a uniform grid (with replication at cell borders, enlarged by Eps) and only
// elements sharing a cell are compared. The reference-point technique makes
// every pair's emission cell unique, so no deduplication pass is needed.
func GridJoin(as, bs []index.Item, opts Options, cfg GridJoinConfig) []Pair {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	p := (Planner{Grid: cfg}).PlanWith(AlgoGrid, as, bs, opts)
	defer p.Close()
	return p.Run()
}

// SelfGridJoin is the grid join of a set with itself (e.g. synapse
// detection). Pairs are reported once with A < B.
func SelfGridJoin(items []index.Item, opts Options, cfg GridJoinConfig) []Pair {
	if len(items) == 0 {
		return nil
	}
	p := (Planner{Grid: cfg}).PlanSelfWith(AlgoGrid, items, opts)
	defer p.Close()
	return p.Run()
}

const (
	// maxCellsPerAxis bounds the grid resolution along one axis; cell
	// coordinates fit a uint8.
	maxCellsPerAxis = 128
	// cellsPerElement caps the data-sized grid at this many cells per
	// element, so the per-cell counters stay O(n). Finer grids cut
	// comparisons further but cost more serial partitioning than they save
	// on sparse uniform inputs.
	cellsPerElement = 1
)

// gridCells sizes the data-driven grid: along each axis, a cell is twice as
// wide as the mean element extent plus eps, so an element's expanded box
// covers 1.5 cells per axis on average and a cell holds little beyond the
// elements that can reach it. The result is capped at maxCellsPerAxis per
// axis and cellsPerElement·n cells overall (largest axes shrink first), and
// is total: non-finite or huge eps, zero extents and tiny inputs all yield
// 1..cap cells.
func gridCells(universe geom.AABB, extent geom.Vec3, eps float64, n int) [3]int {
	span, ext := universe.Size(), [3]float64{extent.X, extent.Y, extent.Z}
	var cells [3]int
	total := 1
	for axis := range cells {
		c := span.Axis(axis) / (2 * (ext[axis] + eps))
		switch {
		case !(c >= 1): // also NaN: 0/0, Inf/Inf
			cells[axis] = 1
		case c >= maxCellsPerAxis: // also +Inf: zero extent and eps
			cells[axis] = maxCellsPerAxis
		default:
			cells[axis] = int(c)
		}
		total *= cells[axis]
	}
	limit := max(cellsPerElement*n, 1)
	for total > limit {
		widest := 0
		for axis := 1; axis < 3; axis++ {
			if cells[axis] > cells[widest] {
				widest = axis
			}
		}
		total = total / cells[widest] * (cells[widest] - 1)
		cells[widest]--
	}
	return cells
}

// refAll is the cellAssignment mask of an entry that is, on every axis, the
// element's lowest assigned cell.
const refAll = 7

// cellBox is the inclusive cell-coordinate range an element's expanded box
// covers.
type cellBox struct {
	lo, hi [3]uint8
}

// cellAssignment is the reusable CSR cell-list storage of one input side:
// cell c's replication entries are idxs[start[c]:start[c+1]], in element
// order. Reuse keeps assignment allocation-free once the buffers are warm.
type cellAssignment struct {
	boxes []cellBox // per element: the cells its expanded box covers
	start []int32   // per cell: offset of its run in idxs/masks, plus total
	idxs  []int32   // element index per entry
	// masks holds, per entry, bit k set when the cell's axis-k coordinate is
	// the element's lowest one. A candidate pair's reference cell is the
	// componentwise max of the two elements' lowest cells; both are at most
	// the shared cell's coordinate on every axis, so the shared cell is the
	// reference cell exactly when masks[x]|masks[y] == refAll.
	masks []uint8
}

// gridTask is a run of consecutive cells [lo, hi) holding about an equal
// share of the plan's candidate pairs.
type gridTask struct {
	lo, hi int32
}

// partitioner assigns elements to uniform grid cells. Its assignment and task
// buffers are reused across joins through a pool (getPartitioner /
// putPartitioner), so steady-state grid joins rebuild no per-call cell maps.
type partitioner struct {
	n      [3]int     // cells per axis
	origin [3]float64 // universe minimum
	scale  [3]float64 // cells per unit length
	h      float64    // assignment half-expansion: Eps/2 plus guard
	a, b   cellAssignment
	tasks  []gridTask
}

var partPool = sync.Pool{New: func() interface{} { return &partitioner{} }}

func getPartitioner(u geom.AABB, cells [3]int, eps float64) *partitioner {
	p := partPool.Get().(*partitioner)
	s := u.Size()
	p.n = cells
	p.origin = [3]float64{u.Min.X, u.Min.Y, u.Min.Z}
	p.scale = [3]float64{float64(cells[0]) / s.X, float64(cells[1]) / s.Y, float64(cells[2]) / s.Z}
	p.h = eps/2 + 1e-12
	return p
}

func putPartitioner(p *partitioner) { partPool.Put(p) }

// cells returns the number of grid cells.
func (p *partitioner) cells() int { return p.n[0] * p.n[1] * p.n[2] }

// coordAxis maps a coordinate to its (clamped) cell index along one axis. It
// is monotone in v, which is what makes the reference cell of a pair the
// componentwise max of the two elements' lowest cells.
func (p *partitioner) coordAxis(v float64, axis int) uint8 {
	x := (v - p.origin[axis]) * p.scale[axis]
	if !(x >= 0) { // also NaN
		return 0
	}
	if x >= float64(p.n[axis]) {
		return uint8(p.n[axis] - 1)
	}
	return uint8(x)
}

// linear maps cell coordinates to the linear cell id.
func (p *partitioner) linear(x, y, z uint8) int {
	return (int(z)*p.n[1]+int(y))*p.n[0] + int(x)
}

// assign maps each item index to every cell its expanded box overlaps, by
// counting sort straight into asn's reused CSR buffers: count entries per
// cell, prefix-sum, scatter. Items are scattered in index order, so each
// cell's run lists its elements in ascending index.
func (p *partitioner) assign(items []index.Item, asn *cellAssignment) {
	nc := p.cells()
	start := resize(asn.start, nc+1)
	clear(start)
	boxes := resize(asn.boxes, len(items))
	for i := range items {
		b := &items[i].Box
		cb := cellBox{
			lo: [3]uint8{p.coordAxis(b.Min.X-p.h, 0), p.coordAxis(b.Min.Y-p.h, 1), p.coordAxis(b.Min.Z-p.h, 2)},
			hi: [3]uint8{p.coordAxis(b.Max.X+p.h, 0), p.coordAxis(b.Max.Y+p.h, 1), p.coordAxis(b.Max.Z+p.h, 2)},
		}
		boxes[i] = cb
		for z := cb.lo[2]; z <= cb.hi[2]; z++ {
			for y := cb.lo[1]; y <= cb.hi[1]; y++ {
				row := p.linear(0, y, z) + 1
				for x := int(cb.lo[0]); x <= int(cb.hi[0]); x++ {
					start[row+x]++
				}
			}
		}
	}
	for c := 1; c <= nc; c++ {
		start[c] += start[c-1]
	}
	total := int(start[nc])
	idxs := resize(asn.idxs, total)
	masks := resize(asn.masks, total)
	// start[c] is cell c's write cursor; once every entry is placed it has
	// advanced to start[c+1], and one shift restores the run offsets.
	for i, cb := range boxes {
		mz := uint8(4)
		for z := cb.lo[2]; z <= cb.hi[2]; z, mz = z+1, 0 {
			my := uint8(2)
			for y := cb.lo[1]; y <= cb.hi[1]; y, my = y+1, 0 {
				row := p.linear(0, y, z)
				mx := uint8(1)
				for x := int(cb.lo[0]); x <= int(cb.hi[0]); x, mx = x+1, 0 {
					pos := start[row+x]
					start[row+x]++
					idxs[pos] = int32(i)
					masks[pos] = mx | my | mz
				}
			}
		}
	}
	copy(start[1:], start[:nc])
	start[0] = 0
	asn.start, asn.boxes, asn.idxs, asn.masks = start, boxes, idxs, masks
}

// cellPairs returns the candidate pairs of cell c: the pairs of its entries
// for a self-join, the products of both sides' entries otherwise.
func (p *partitioner) cellPairs(c int, self bool) int64 {
	na := int64(p.a.start[c+1] - p.a.start[c])
	if self {
		return na * (na - 1) / 2
	}
	return na * int64(p.b.start[c+1]-p.b.start[c])
}

// split cuts the grid into about target tasks of consecutive cells with
// equal candidate-pair counts; cells without candidate pairs start no task.
// Batching cells keeps the per-task cost off the thousands of near-empty
// cells a data-sized grid has.
func (p *partitioner) split(self bool, target int) []gridTask {
	var total int64
	for c := 0; c < p.cells(); c++ {
		total += p.cellPairs(c, self)
	}
	share := max(total/int64(target), 1)
	p.tasks = p.tasks[:0]
	lo, acc := -1, int64(0)
	for c := 0; c < p.cells(); c++ {
		w := p.cellPairs(c, self)
		if w == 0 {
			continue
		}
		if lo < 0 {
			lo = c
		}
		if acc += w; acc >= share {
			p.tasks = append(p.tasks, gridTask{lo: int32(lo), hi: int32(c + 1)})
			lo, acc = -1, 0
		}
	}
	if lo >= 0 {
		p.tasks = append(p.tasks, gridTask{lo: int32(lo), hi: int32(p.cells())})
	}
	return p.tasks
}

// resize returns s with length n, reusing its backing array when large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
