package serve

// Shard-family registry: the menu of index layouts the query planner chooses
// from at freeze time. Each family is an existing engine wrapped into the
// ShardBuilder shape; the planner (internal/planner) speaks family names, the
// store maps names to builders here, and the chosen name travels with the
// shard so the latency catalog and Reply plan reporting stay attributable.

import (
	"sort"
	"strings"
	"sync/atomic"

	"spatialsim/internal/catalog"
	"spatialsim/internal/crtree"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/planner"
	"spatialsim/internal/rtree"
)

// CRTreeBuilder returns a ShardBuilder backed by a bulk-loaded CR-Tree — the
// compressed cache-conscious layout, worth its quantization overhead once a
// shard's working set outgrows fast cache levels. A bulk-loaded tree with no
// subsequent mutations is immutable and safe for unbounded concurrent
// readers, which is the property the serving layer requires of a snapshot.
func CRTreeBuilder(cfg crtree.Config) ShardBuilder {
	return func(_ geom.AABB, items []index.Item, _ int) index.ReadIndex {
		t := crtree.New(cfg)
		t.BulkLoad(items)
		return t
	}
}

// ScanBuilder returns a ShardBuilder that builds no structure at all: the
// flat linear scan. Below the advisor's scan crossover (planner.ScanMax) an
// index never amortizes its build cost, so "no index" is a first-class
// planner choice, exactly as the paper argues.
func ScanBuilder() ShardBuilder {
	return func(_ geom.AABB, items []index.Item, _ int) index.ReadIndex {
		ls := index.NewLinearScan()
		ls.BulkLoad(items)
		return ls
	}
}

// DefaultFamilies returns the default planner menu: every serving-capable
// index family under its planner name, with the same tuning the static
// single-family configurations use.
func DefaultFamilies() map[string]ShardBuilder {
	return map[string]ShardBuilder{
		planner.FamilyRTree:  RTreeBuilder(rtree.Config{}),
		planner.FamilyGrid:   GridBuilder(24),
		planner.FamilyOctree: OctreeBuilder(32),
		planner.FamilyCRTree: CRTreeBuilder(crtree.Config{}),
		planner.FamilyScan:   ScanBuilder(),
	}
}

// familyNames returns the sorted name list of a family menu — the planner's
// available set, sorted so the choice is deterministic across runs and across
// crash recovery.
func familyNames(m map[string]ShardBuilder) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildShard profiles one shard's items and builds its frozen snapshot,
// routing the index-family choice through the planner when one is configured.
// Both the publish path (freezeAndSwap) and crash recovery build through here,
// so a recovered shard re-derives the same profile from the same items and
// lands on the same family the pre-crash build chose.
func (s *Store) buildShard(bounds geom.AABB, items []index.Item, workers int) Shard {
	prof := catalog.Profile(items)
	if s.cfg.Planner == nil {
		snap := s.cfg.Build(bounds, items, workers)
		return Shard{bounds: bounds, snap: snap, family: normalizeFamily(snap.Name()), profile: prof, refs: new(atomic.Int32)}
	}
	fam := s.cfg.Planner.ChooseFamily(prof, s.families)
	return Shard{bounds: bounds, snap: s.cfg.Families[fam](bounds, items, workers), family: fam, profile: prof, refs: new(atomic.Int32)}
}

// recoveredShard wraps a recovered R-Tree snapshot (an overlay of the
// segment image, in both serving modes) into a Shard. It does not scan the
// items to reconstruct a statistics profile — on a mapped segment a scan
// would fault in every leaf page, defeating O(open) recovery. The profile
// carries only what the envelope knows (cardinality and bounds), which is
// all query fan-out pruning needs; the first post-recovery epoch build
// re-profiles everything anyway.
func recoveredShard(bounds geom.AABB, c *rtree.Compact) Shard {
	return Shard{
		bounds:  bounds,
		snap:    c,
		family:  normalizeFamily(c.Name()),
		profile: catalog.ShardProfile{Card: c.Len(), MBR: bounds},
		refs:    new(atomic.Int32),
	}
}

// normalizeFamily maps a snapshot's self-reported name onto its planner
// family name ("rtree-compact" -> "rtree"), so family attribution is stable
// across the mutable/frozen boundary and across crash recovery.
func normalizeFamily(name string) string {
	return strings.TrimSuffix(name, "-compact")
}
