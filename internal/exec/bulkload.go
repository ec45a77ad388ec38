package exec

import (
	"spatialsim/internal/index"
)

// ParallelBulkLoad (re)builds the index from items using the most parallel
// path the index supports:
//
//   - families implementing index.ParallelBulkLoader (R-Tree, grid, octree,
//     SimIndex) partition the items into STR-style sort-tile slabs / cell
//     stripes / octants and build the partitions concurrently;
//   - plain index.BulkLoader families fall back to their sequential bulk
//     load, which still replaces the index contents;
//   - indexes with neither receive a sequential insert loop into their
//     current contents.
func ParallelBulkLoad(ix index.Index, items []index.Item, opts Options) {
	workers := opts.workerCount(len(items))
	switch x := ix.(type) {
	case index.ParallelBulkLoader:
		x.ParallelBulkLoad(items, workers)
	case index.BulkLoader:
		x.BulkLoad(items)
	default:
		for _, it := range items {
			ix.Insert(it.ID, it.Box)
		}
	}
}
