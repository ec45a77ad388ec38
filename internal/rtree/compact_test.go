package rtree

import (
	"slices"
	"sort"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

func queryBoxes(n int, seed int64) []geom.AABB {
	items := randomItems(n, seed)
	boxes := make([]geom.AABB, n)
	for i, it := range items {
		boxes[i] = it.Box.Expand(1.5)
	}
	return boxes
}

func TestCompactRangeMatchesMutable(t *testing.T) {
	items := randomItems(5000, 7)
	tr := NewDefault()
	tr.BulkLoad(items)
	c := tr.Freeze()
	if c.Len() != tr.Len() {
		t.Fatalf("compact Len = %d, want %d", c.Len(), tr.Len())
	}
	if got, want := c.Height(), tr.Height(); got != want {
		t.Fatalf("compact Height = %d, want %d", got, want)
	}
	for qi, q := range queryBoxes(60, 8) {
		want := index.SearchIDs(tr, q)
		var got []int64
		c.RangeVisit(q, func(it index.Item) bool {
			got = append(got, it.ID)
			return true
		})
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: result %d = id %d, want %d", qi, i, got[i], want[i])
			}
		}
	}
}

func TestCompactSnapshotIndependentOfLaterMutation(t *testing.T) {
	items := randomItems(1000, 9)
	tr := NewDefault()
	tr.BulkLoad(items)
	c := tr.Freeze()
	q := universe()
	before := len(index.VisitAll(c, q))
	// Mutate the source tree heavily: the snapshot must not notice.
	for _, it := range items[:500] {
		tr.Delete(it.ID, it.Box)
	}
	tr.Insert(99999, geom.AABBFromCenter(geom.V(50, 50, 50), geom.V(1, 1, 1)))
	after := len(index.VisitAll(c, q))
	if before != after || before != len(items) {
		t.Fatalf("snapshot changed under mutation: before=%d after=%d want=%d", before, after, len(items))
	}
}

func TestCompactKNNMatchesMutable(t *testing.T) {
	items := randomItems(3000, 10)
	tr := NewDefault()
	tr.BulkLoad(items)
	c := tr.Freeze()
	points := []geom.Vec3{
		geom.V(1, 1, 1), geom.V(50, 50, 50), geom.V(99, 2, 70), geom.V(-5, 120, 50),
	}
	for _, p := range points {
		for _, k := range []int{1, 8, 33} {
			want := tr.KNN(p, k)
			got := c.KNNInto(p, k, nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				// Distances must agree (ids may differ on exact ties).
				gd := got[i].Box.Distance2ToPoint(p)
				wd := want[i].Box.Distance2ToPoint(p)
				if gd != wd {
					t.Fatalf("k=%d rank %d: dist2 %g, want %g", k, i, gd, wd)
				}
			}
		}
	}
}

// TestCompactKNNWithinIsBoundedPrefix: KNNWithin returns exactly the prefix
// of KNNInto's answer within the distance bound — the property the epoch's
// cross-tile merge relies on to stay identical to an unbounded search.
func TestCompactKNNWithinIsBoundedPrefix(t *testing.T) {
	c := FreezeItems(randomItems(3000, 12), Config{})
	for _, p := range []geom.Vec3{geom.V(1, 1, 1), geom.V(50, 50, 50), geom.V(-5, 120, 50)} {
		for _, k := range []int{1, 8, 33} {
			full := c.KNNInto(p, k, nil)
			for _, cut := range []int{0, k / 2, k - 1} {
				bound := full[cut].Box.Distance2ToPoint(p)
				got := c.KNNWithin(p, k, bound, nil)
				want := full
				for len(want) > 0 && want[len(want)-1].Box.Distance2ToPoint(p) > bound {
					want = want[:len(want)-1]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("p=%v k=%d bound=%g: %d items, want the %d-item prefix", p, k, bound, len(got), len(want))
				}
			}
			if got := c.KNNWithin(p, k, -1, nil); len(got) != 0 {
				t.Fatalf("p=%v k=%d: a negative bound returned %d items", p, k, len(got))
			}
		}
	}
}

func TestCompactEmptyAndTinyTrees(t *testing.T) {
	empty := NewDefault().Freeze()
	if got := index.VisitAll(empty, universe()); len(got) != 0 {
		t.Fatalf("empty compact returned %d results", len(got))
	}
	if got := empty.KNNInto(geom.V(0, 0, 0), 5, nil); len(got) != 0 {
		t.Fatalf("empty compact KNN returned %d results", len(got))
	}
	one := NewDefault()
	one.Insert(42, geom.AABBFromCenter(geom.V(1, 2, 3), geom.V(1, 1, 1)))
	c := one.Freeze()
	if got := index.VisitAll(c, universe()); len(got) != 1 || got[0].ID != 42 {
		t.Fatalf("single-item compact: got %+v", got)
	}
}

func TestCompactRangeVisitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	items := randomItems(20000, 11)
	c := FreezeItems(items, Config{})
	queries := queryBoxes(16, 12)
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			c.RangeVisit(q, func(it index.Item) bool {
				sink += it.ID
				return true
			})
		}
	})
	if allocs != 0 {
		t.Fatalf("RangeVisit allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

func TestCompactKNNIntoZeroAllocsWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	items := randomItems(20000, 13)
	c := FreezeItems(items, Config{})
	buf := make([]index.Item, 0, 16)
	p := geom.V(42, 17, 63)
	// Warm the pooled heap once.
	buf = c.KNNInto(p, 16, buf[:0])
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.KNNInto(p, 16, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm KNNInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestMutableRangeVisitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	items := randomItems(20000, 14)
	tr := NewDefault()
	tr.BulkLoad(items)
	queries := queryBoxes(16, 15)
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			tr.RangeVisit(q, func(it index.Item) bool {
				sink += it.ID
				return true
			})
		}
	})
	if allocs != 0 {
		t.Fatalf("mutable RangeVisit allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestCompactLeafListsEveryItemOnce: Leaf(0..Len) is the item set, each item
// once with its box, and an overlay of the serialized snapshot has the same
// leaf at every position — a leaf position names the same item in both.
func TestCompactLeafListsEveryItemOnce(t *testing.T) {
	for _, n := range []int{1, 5, 3000} {
		items := randomItems(n, int64(n)+3)
		c := FreezeItems(items, Config{})
		leaves := make([]index.Item, c.Len())
		for i := range leaves {
			leaves[i] = c.Leaf(i)
		}
		byID := func(a, b index.Item) int { return int(a.ID - b.ID) }
		want, got := slices.Clone(items), slices.Clone(leaves)
		slices.SortFunc(want, byID)
		slices.SortFunc(got, byID)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: the leaves are not the item set", n)
		}
		if !OverlaySupported() {
			continue
		}
		ov, _, err := OverlayCompact(alignedBlob(c))
		if err != nil {
			t.Fatalf("n=%d: overlay: %v", n, err)
		}
		for i := range leaves {
			if ov.Leaf(i) != leaves[i] {
				t.Fatalf("n=%d: overlay leaf %d is %v, frozen %v", n, i, ov.Leaf(i), leaves[i])
			}
		}
	}
}
