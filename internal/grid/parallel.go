package grid

import (
	"sync"

	"spatialsim/internal/index"
	"spatialsim/internal/par"
)

// parallelLoadMinItems is the size below which the sequential path is used.
const parallelLoadMinItems = 1 << 12

// ParallelBulkLoad implements index.ParallelBulkLoader. A grid rebuild is a
// linear binning pass, so it parallelizes by partitioning the *cells*, not
// the items: the cell array is cut into contiguous Z-bands (the cell layout
// is Z-major), each owned by exactly one worker, and every worker scans the
// items and bins those overlapping its band. Cell list appends therefore
// never race and need no locks; the id->range table is filled by a dedicated
// goroutine running concurrently with the binning.
func (g *Grid) ParallelBulkLoad(items []index.Item, workers int) {
	if workers <= 1 || len(items) < parallelLoadMinItems {
		g.BulkLoad(items)
		return
	}
	for i := range g.cells {
		g.cells[i] = nil
	}
	g.counters.AddUpdates(int64(len(items)))

	// Phase 1: compute every item's cell range once, in parallel.
	ranges := make([]cellRange, len(items))
	par.ForChunks(len(items), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ranges[i] = g.rangeFor(items[i].Box)
		}
	})

	// Phase 2: fill the (single-writer) id->range table while the workers
	// bin items into their Z-bands of the cell array.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.ranges = make(map[int64]cellRange, len(items))
		for i := range items {
			g.ranges[items[i].ID] = ranges[i]
		}
	}()
	nz := g.n[2]
	bands := workers
	if bands > nz {
		bands = nz
	}
	par.ForTasks(bands, bands, func(_, band int) {
		zLo := band * nz / bands
		zHi := (band+1)*nz/bands - 1
		for i := range items {
			r := ranges[i]
			lo := maxI(r.lo[2], zLo)
			hi := minI(r.hi[2], zHi)
			if lo > hi {
				continue
			}
			it := cellItem{id: items[i].ID, box: items[i].Box}
			banded := r
			banded.lo[2], banded.hi[2] = lo, hi
			g.forEachCell(banded, func(ci int) {
				g.cells[ci] = append(g.cells[ci], it)
			})
		}
	})
	wg.Wait()
	g.size = len(items)
}

var _ index.ParallelBulkLoader = (*Grid)(nil)
