package experiments

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

func pagedTestItems(n int, seed int64) []index.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		half := geom.V(0.2+r.Float64(), 0.2+r.Float64(), 0.2+r.Float64())
		items[i] = index.Item{ID: int64(i + 1), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

func pagedTestQueries() []geom.AABB {
	return []geom.AABB{
		geom.NewAABB(geom.V(10, 10, 10), geom.V(30, 30, 30)),
		geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100)),
		geom.NewAABB(geom.V(200, 200, 200), geom.V(201, 201, 201)),
	}
}

// checkPagedMatches runs every test query through pc and c and fails
// unless both return the same ids; clear empties the pool before each.
func checkPagedMatches(t *testing.T, pc *PagedCompact, c *rtree.Compact, clear bool) {
	t.Helper()
	for qi, q := range pagedTestQueries() {
		if clear {
			pc.ClearCache()
		}
		got, err := pc.SearchIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		c.RangeVisit(q, func(it index.Item) bool { want = append(want, it.ID); return true })
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("q%d: paged results diverge (%d vs %d)", qi, len(got), len(want))
		}
	}
}

func TestPagedCompactMatchesInMemory(t *testing.T) {
	items := pagedTestItems(3000, 77)
	c := rtree.FreezeItems(items, rtree.Config{})
	pager := storage.NewDisk(storage.DiskConfig{PageSize: 4096})
	start, pages, err := WriteCompactPages(pager, c)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 1 {
		t.Fatalf("wrote %d pages", pages)
	}
	pc, err := OpenPagedCompact(pager, start, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Len() != c.Len() || pc.Height() != c.Height() {
		t.Fatalf("len/height %d/%d, want %d/%d", pc.Len(), pc.Height(), c.Len(), c.Height())
	}
	checkPagedMatches(t, pc, c, true)
	if pc.Counters().Snapshot().PagesRead == 0 {
		t.Fatal("no pages read counted")
	}
}

// TestPagedCompactTinyPool serves a dataset whose page image is far larger
// than the buffer pool — the larger-than-RAM shape, scaled down — and checks
// results stay exact while the pool actually churns.
func TestPagedCompactTinyPool(t *testing.T) {
	items := pagedTestItems(5000, 53)
	c := rtree.FreezeItems(items, rtree.Config{})
	pager := storage.NewDisk(storage.DiskConfig{PageSize: 512})
	start, pages, err := WriteCompactPages(pager, c)
	if err != nil {
		t.Fatal(err)
	}
	const poolPages = 4
	if pages <= poolPages*8 {
		t.Fatalf("dataset spans %d pages, not larger-than-pool (%d)", pages, poolPages)
	}
	pc, err := OpenPagedCompact(pager, start, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	checkPagedMatches(t, pc, c, false)
	if stats := pc.Pool().Stats(); stats.Evictions == 0 {
		t.Fatalf("pool never evicted under capacity %d with %d pages: %+v", poolPages, pages, stats)
	}
}

// TestPagedCompactRefusesReference: the paged reader only knows R-Tree
// blobs; handed the bytes of a reference record from a real saved segment
// (a carried shard) it must refuse them with an error, not fault.
func TestPagedCompactRefusesReference(t *testing.T) {
	dir := t.TempDir()
	s, err := persist.Open(dir, persist.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := pagedTestItems(128, 5)
	var shards []persist.ShardRecord
	for i := 0; i < len(items); i += 32 {
		c := rtree.FreezeItems(items[i:i+32], rtree.Config{})
		shards = append(shards, persist.ShardRecord{Bounds: c.Bounds(), RTree: c})
	}
	for epoch := uint64(1); epoch <= 2; epoch++ {
		// Only the last shard gets a new image, so epoch 2 writes the
		// others as references into segment 1.
		last := rtree.FreezeItems(items[96:], rtree.Config{})
		shards[3] = persist.ShardRecord{Bounds: last.Bounds(), RTree: last}
		if err := s.SaveEpoch(epoch, 0, shards); err != nil {
			t.Fatal(err)
		}
	}
	snaps := s.Snapshots()
	seg, err := os.ReadFile(filepath.Join(dir, snaps[len(snaps)-1].Name))
	if err != nil {
		t.Fatal(err)
	}
	info, recs, err := persist.DecodeSegment(seg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Ref == nil {
		t.Fatal("epoch 2 wrote its unchanged shard in full, not as a reference")
	}
	// The first record of the payload: kind and pad (8 B), bounds (48 B),
	// blob length (8 B), then the 28-byte reference blob.
	const headerLen, blobLen = 8 + 48 + 8, 8 + 8 + 8 + 4
	record := seg[info.PageSize : info.PageSize+headerLen+blobLen]
	if record[0] != 3 {
		t.Fatalf("payload starts with a kind %d record, want a reference (3)", record[0])
	}
	for name, data := range map[string][]byte{"record": record, "blob": record[headerLen:]} {
		pager := storage.NewDisk(storage.DiskConfig{PageSize: 512})
		id := pager.Allocate()
		if err := pager.Write(id, data); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPagedCompact(pager, id, 4); err == nil {
			t.Fatalf("%s of reference %+v opened as a paged R-Tree", name, *recs[0].Ref)
		}
	}
}
