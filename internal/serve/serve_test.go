package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/rtree"
)

// mustNew builds a store or fails the test (construction only fails for
// durable stores with unrecoverable state).
func mustNew(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// checkedQuery runs one read through Store.Query and reports Reply.Err as a
// test error (Errorf, so readers on their own goroutines may call it).
func checkedQuery(t testing.TB, s *Store, req Request) Reply {
	t.Helper()
	rep := s.Query(req)
	if rep.Err != nil {
		t.Errorf("query %+v: %v", req.Op, rep.Err)
	}
	return rep
}

// rangeAll appends every item intersecting q to buf through checkedQuery.
func rangeAll(t testing.TB, s *Store, q geom.AABB, buf []index.Item) ([]index.Item, uint64) {
	t.Helper()
	rep := checkedQuery(t, s, Request{Op: OpRange, Query: q, Buf: buf})
	return rep.Items, rep.Epoch
}

// knnAll appends the k items nearest to p, closest first, to buf through
// checkedQuery.
func knnAll(t testing.TB, s *Store, p geom.Vec3, k int, buf []index.Item) ([]index.Item, uint64) {
	t.Helper()
	rep := checkedQuery(t, s, Request{Op: OpKNN, Point: p, K: k, Buf: buf})
	return rep.Items, rep.Epoch
}

// genBox returns the box of item id at generation gen: a unit cube on a grid
// in x/y whose z coordinate encodes the generation. A consistent epoch
// therefore answers a whole-universe range query with boxes that all carry
// the same z — any mix of z values is a torn epoch.
func genBox(id int64, gen int) geom.AABB {
	x := float64(id % 32)
	y := float64(id / 32)
	z := 4 * float64(gen)
	return geom.NewAABB(geom.V(x, y, z), geom.V(x+1, y+1, z+1))
}

func genItems(n, gen int) []index.Item {
	items := make([]index.Item, n)
	for i := range items {
		items[i] = index.Item{ID: int64(i), Box: genBox(int64(i), gen)}
	}
	return items
}

func genUpdates(n, gen int) []Update {
	ups := make([]Update, n)
	for i := range ups {
		ups[i] = Update{ID: int64(i), Box: genBox(int64(i), gen)}
	}
	return ups
}

// TestEpochSwapConsistencyUnderConcurrentReaders is the subsystem's core
// guarantee: concurrent readers running through many ingest/freeze/swap
// cycles always observe exactly one consistent epoch — the full item count,
// all from a single generation, never a blend of two.
func TestEpochSwapConsistencyUnderConcurrentReaders(t *testing.T) {
	const (
		n       = 600
		cycles  = 12
		readers = 6
	)
	s := mustNew(t, Config{Shards: 5, Workers: 4, MaxInFlight: 64})
	defer s.Close()
	s.Bootstrap(genItems(n, 0))

	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 4*float64(cycles)+8))
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	var rangeQueries, knnQueries atomic.Int64

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]index.Item, 0, n)
			var lastSeq uint64
			for !stop.Load() {
				if rng.Intn(4) > 0 {
					var got []index.Item
					got, seq := rangeAll(t, s, universe, buf[:0])
					if seq < lastSeq {
						errs <- "epoch sequence went backwards"
						return
					}
					lastSeq = seq
					if len(got) != n {
						errs <- "lost results: wrong item count in whole-universe query"
						return
					}
					z := got[0].Box.Min.Z
					for _, it := range got {
						if it.Box.Min.Z != z {
							errs <- "torn epoch: one query observed two generations"
							return
						}
						if it.Box != genBox(it.ID, int(z/4)) {
							errs <- "box does not match any generation"
							return
						}
					}
					rangeQueries.Add(1)
				} else {
					p := geom.V(rng.Float64()*32, rng.Float64()*20, rng.Float64()*40)
					got, _ := knnAll(t, s, p, 5, buf[:0])
					if len(got) != 5 {
						errs <- "kNN returned wrong count"
						return
					}
					z := got[0].Box.Min.Z
					for _, it := range got {
						if it.Box.Min.Z != z {
							errs <- "torn epoch: kNN observed two generations"
							return
						}
					}
					knnQueries.Add(1)
				}
			}
		}(int64(r + 1))
	}

	for gen := 1; gen <= cycles; gen++ {
		seq, err := s.Apply(genUpdates(n, gen))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(gen+1) {
			t.Fatalf("epoch seq after cycle %d = %d, want %d", gen, seq, gen+1)
		}
	}
	// Let readers run against the final epoch before stopping.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if rangeQueries.Load() == 0 || knnQueries.Load() == 0 {
		t.Fatalf("readers made no progress during swaps: %d range, %d knn",
			rangeQueries.Load(), knnQueries.Load())
	}

	st := s.Stats()
	if st.Epoch != uint64(cycles+1) {
		t.Fatalf("final epoch = %d, want %d", st.Epoch, cycles+1)
	}
	if st.EpochSwaps != int64(cycles+1) {
		t.Fatalf("swaps = %d, want %d", st.EpochSwaps, cycles+1)
	}
	// Every superseded epoch eventually drains its pins and retires.
	deadline := time.Now().Add(2 * time.Second)
	for s.retired.Load() < int64(cycles) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.retired.Load(); got < int64(cycles) {
		t.Fatalf("retired epochs = %d, want >= %d", got, cycles)
	}
}

// TestRangeMatchesReference is the store's brute-force oracle: on three
// datasets, with the result cache off and on, range ids, kNN rank distances
// (ties between equidistant items may break either way) and self-join pairs
// match a linear scan and a nested-loop join over the same items. Every
// query runs twice, so with the cache on the repeat is a hit and is checked
// too.
func TestRangeMatchesReference(t *testing.T) {
	for _, ds := range []struct {
		name  string
		items []index.Item
	}{
		{"random", randomDataset(4000, 7)},
		{"uniform", uniformDataset(3000, 42)},
		{"clustered", clusteredDataset(3000, 43)},
	} {
		t.Run(ds.name, func(t *testing.T) {
			ref := index.NewLinearScan()
			ref.BulkLoad(ds.items)
			const eps = 1.5
			wantPairs := join.DedupPairs(join.SelfNestedLoop(ds.items, join.Options{Eps: eps}))
			bounds := BoundsOf(ds.items)
			size := bounds.Size()
			for _, cache := range []int{0, 256} {
				name := "nocache"
				if cache > 0 {
					name = "cache"
				}
				t.Run(name, func(t *testing.T) {
					s := mustNew(t, Config{Shards: 7, Workers: 4, CacheEntries: cache})
					defer s.Close()
					s.Bootstrap(ds.items)
					rng := rand.New(rand.NewSource(7))
					at := func(f float64) geom.Vec3 {
						return geom.V(bounds.Min.X+rng.Float64()*f*size.X, bounds.Min.Y+rng.Float64()*f*size.Y, bounds.Min.Z+rng.Float64()*f*size.Z)
					}
					for q := 0; q < 40; q++ {
						lo := at(0.9)
						box := geom.NewAABB(lo, lo.Add(geom.V(size.X*(0.01+rng.Float64()/4), size.Y*(0.01+rng.Float64()/4), size.Z*(0.01+rng.Float64()/4))))
						want := sortedIDs(index.SearchAll(ref, box))
						for rep := 0; rep < 2; rep++ {
							got, _ := rangeAll(t, s, box, nil)
							if !reflect.DeepEqual(sortedIDs(got), want) {
								t.Fatalf("range %v (run %d): %d items, want %d", box, rep, len(got), len(want))
							}
						}
					}
					for q := 0; q < 25; q++ {
						p, k := at(1), 1+rng.Intn(20)
						want := rankDistances(ref.KNN(p, k), p)
						for rep := 0; rep < 2; rep++ {
							got, _ := knnAll(t, s, p, k, nil)
							if d := rankDistances(got, p); !reflect.DeepEqual(d, want) {
								t.Fatalf("knn p=%v k=%d (run %d): distances %v, want %v", p, k, rep, d, want)
							}
						}
					}
					if rep := s.SelfJoin(JoinRequest{Eps: eps, Workers: 2}); !reflect.DeepEqual(rep.Pairs, wantPairs) {
						t.Fatalf("self-join: %d pairs, want %d", len(rep.Pairs), len(wantPairs))
					}
					if st := s.Stats(); cache > 0 && (st.Cache == nil || st.Cache.Hits == 0) {
						t.Fatalf("repeated queries must produce cache hits, stats: %+v", st.Cache)
					}
				})
			}
		})
	}
}

// TestReplyReportsPlanOnEveryOp: every reply reports its shard fan-out and
// whether the epoch cache answered it; a join reply names its algorithm.
func TestReplyReportsPlanOnEveryOp(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 16})
	defer s.Close()
	s.Bootstrap(uniformDataset(2000, 11))

	box := geom.NewAABB(geom.V(10, 10, 10), geom.V(60, 60, 60))
	r1 := s.Query(Request{Op: OpRange, Query: box})
	if r1.Plan.FanOut <= 0 || r1.Plan.CacheHit {
		t.Fatalf("first range plan: %+v", r1.Plan)
	}
	r2 := s.Query(Request{Op: OpRange, Query: box})
	if !r2.Plan.CacheHit || r2.Plan.FanOut != r1.Plan.FanOut {
		t.Fatalf("repeat range plan should be a cache hit with the same fan-out: %+v", r2.Plan)
	}
	if !reflect.DeepEqual(sortedIDs(r1.Items), sortedIDs(r2.Items)) {
		t.Fatal("cache hit changed the result")
	}

	k := s.Query(Request{Op: OpKNN, Point: geom.V(50, 50, 50), K: 5})
	if k.Plan.FanOut <= 0 {
		t.Fatalf("knn plan: %+v", k.Plan)
	}
	j := s.Query(Request{Op: OpJoin, Join: JoinRequest{Eps: 1, Workers: 2}})
	if j.Plan.Algorithm != join.Algorithm || j.Plan.FanOut <= 0 {
		t.Fatalf("join plan must name the grid and the fan-out: %+v", j.Plan)
	}
}

func randomDataset(n int, seed int64) []index.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)
		half := geom.V(0.1+rng.Float64(), 0.1+rng.Float64(), 0.1+rng.Float64())
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, half)}
	}
	return items
}

func uniformDataset(n int, seed int64) []index.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(0.5, 0.5, 0.5))}
	}
	return items
}

func clusteredDataset(n int, seed int64) []index.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	centers := []geom.Vec3{geom.V(10, 10, 10), geom.V(90, 90, 90), geom.V(10, 90, 50)}
	for i := range items {
		base := centers[i%len(centers)]
		c := base.Add(geom.V(rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2))
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(0.5, 0.5, 0.5))}
	}
	return items
}

func sortedIDs(items []index.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func rankDistances(items []index.Item, p geom.Vec3) []float64 {
	d := make([]float64, len(items))
	for i, it := range items {
		d[i] = it.Box.Distance2ToPoint(p)
	}
	return d
}

// TestKNNMatchesReference checks the cross-shard kNN merge (shard-local heaps
// merged with MBR pruning) against the linear-scan reference by distance.
func TestKNNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := make([]index.Item, 3000)
	for i := range items {
		c := geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)
		items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(0.4, 0.4, 0.4))}
	}
	ref := index.NewLinearScan()
	ref.BulkLoad(items)
	s := mustNew(t, Config{Shards: 9, Workers: 4})
	defer s.Close()
	s.Bootstrap(items)

	for q := 0; q < 50; q++ {
		p := geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)
		k := 1 + rng.Intn(12)
		want := ref.KNN(p, k)
		got, _ := knnAll(t, s, p, k, nil)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", q, len(got), len(want))
		}
		for i := range got {
			gd := got[i].Box.Distance2ToPoint(p)
			wd := want[i].Box.Distance2ToPoint(p)
			if gd != wd {
				t.Fatalf("query %d rank %d: distance2 %v, want %v", q, i, gd, wd)
			}
		}
	}
}

// TestKNNTiesOrderByID: on the unit-cube grid many items lie at the same
// distance from a point, and the kNN reply orders them by ID — the order
// the cluster coordinator answers in — with the brute-force distances, on
// one shard and across several.
func TestKNNTiesOrderByID(t *testing.T) {
	items := genItems(400, 0)
	p := geom.V(16, 6, 2)
	ref := index.NewLinearScan()
	ref.BulkLoad(items)
	for _, shards := range []int{1, 4} {
		s := mustNew(t, Config{Shards: shards})
		s.Bootstrap(items)
		for _, k := range []int{5, 50, 200} {
			got, _ := knnAll(t, s, p, k, nil)
			want := rankDistances(ref.KNN(p, k), p)
			if !slices.Equal(rankDistances(got, p), want) {
				t.Fatalf("shards %d k %d: distances %v, want %v", shards, k, rankDistances(got, p), want)
			}
			for i := 1; i < len(got); i++ {
				if d0, d1 := got[i-1].Box.Distance2ToPoint(p), got[i].Box.Distance2ToPoint(p); d0 == d1 && got[i-1].ID > got[i].ID {
					t.Fatalf("shards %d k %d: rank %d: ID %d before %d at equal distance %v", shards, k, i, got[i-1].ID, got[i].ID, d0)
				}
			}
		}
		s.Close()
	}
}

// TestKNNWarmAllocsZero pins the kNN read path's allocations: a warm,
// uncached kNN that lends its result buffer allocates nothing — the shard
// order, the merge and the R-Tree heap all come from pools.
func TestKNNWarmAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := mustNew(t, Config{Shards: 4})
	defer s.Close()
	s.Bootstrap(randomDataset(4000, 5))
	buf := make([]index.Item, 0, 64)
	req := Request{Op: OpKNN, Point: geom.V(25, 25, 25), K: 8, NoCache: true}
	for i := 0; i < 10; i++ {
		req.Buf = buf[:0]
		checkedQuery(t, s, req)
	}
	allocs := testing.AllocsPerRun(200, func() {
		req.Buf = buf[:0]
		if rep := s.Query(req); rep.Err != nil || len(rep.Items) != 8 {
			t.Fatalf("knn: err=%v items=%d", rep.Err, len(rep.Items))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm uncached kNN allocates %.2f times per op, want 0", allocs)
	}
}

// TestAdmissionControlBoundsInFlight holds queries open with a slow visitor
// and checks the in-flight watermark never exceeds the configured bound.
func TestAdmissionControlBoundsInFlight(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, MaxInFlight: 3})
	defer s.Close()
	s.Bootstrap(genItems(200, 0))

	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkedQuery(t, s, Request{Op: OpRange, Query: universe, Visit: func(index.Item) bool {
				time.Sleep(200 * time.Microsecond)
				return true
			}})
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.PeakInFlight > 3 {
		t.Fatalf("peak in-flight %d exceeded MaxInFlight 3", st.PeakInFlight)
	}
	if st.PeakInFlight == 0 {
		t.Fatal("peak in-flight never recorded")
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after all queries returned", st.InFlight)
	}
}

// TestDeletesAndStats exercises the delete path and the stats snapshot shape.
func TestDeletesAndStats(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(300, 0))

	dels := make([]Update, 150)
	for i := range dels {
		dels[i] = Update{ID: int64(i * 2), Delete: true}
	}
	s.Apply(dels)

	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))
	got, _ := rangeAll(t, s, universe, nil)
	if len(got) != 150 {
		t.Fatalf("after deleting 150 of 300, range returned %d", len(got))
	}
	for _, it := range got {
		if it.ID%2 == 0 {
			t.Fatalf("deleted id %d still served", it.ID)
		}
	}

	st := s.Stats()
	if st.Items != 150 {
		t.Fatalf("stats items = %d, want 150", st.Items)
	}
	if len(st.Shards) == 0 {
		t.Fatal("stats missing shards")
	}
	total := 0
	for _, sh := range st.Shards {
		total += sh.Items
		if sh.Items > 0 && !sh.Bounds.IsValid() {
			t.Fatal("non-empty shard with invalid bounds")
		}
	}
	if total != 150 {
		t.Fatalf("shard items sum to %d, want 150", total)
	}
	if st.Queries == 0 || st.Results == 0 {
		t.Fatal("query accounting empty")
	}
	if st.UpdatesStaged == 0 {
		t.Fatal("staging accounting empty")
	}
}

// TestPartitionSTRCoversAllItemsOnce checks the shard partitioner assigns
// every item to exactly one part and respects the part-count bound.
func TestPartitionSTRCoversAllItemsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 100, 1303} {
		for _, k := range []int{1, 2, 5, 8, 16} {
			items := make([]index.Item, n)
			for i := range items {
				c := geom.V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
				items[i] = index.Item{ID: int64(i), Box: geom.PointAABB(c)}
			}
			parts := partitionSTR(items, k)
			if n == 0 {
				if parts != nil {
					t.Fatalf("n=0 k=%d: expected nil parts", k)
				}
				continue
			}
			if len(parts) > k {
				t.Fatalf("n=%d k=%d: %d parts exceeds bound %d", n, k, len(parts), k)
			}
			seen := make(map[int64]int)
			for _, part := range parts {
				if len(part) == 0 {
					t.Fatalf("n=%d k=%d: empty part", n, k)
				}
				for _, it := range part {
					seen[it.ID]++
				}
			}
			if len(seen) != n {
				t.Fatalf("n=%d k=%d: %d distinct ids, want %d", n, k, len(seen), n)
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d k=%d: id %d appears %d times", n, k, id, c)
				}
			}
		}
	}
}

func idSet(items []index.Item) map[int64]bool {
	m := make(map[int64]bool, len(items))
	for _, it := range items {
		m[it.ID] = true
	}
	return m
}

// joinShape returns a self-join input's elongation (longest over
// second-longest axis of its MBR) and coverage (summed box volume over MBR
// volume).
func joinShape(items []index.Item) (elongation, coverage float64) {
	mbr := geom.EmptyAABB()
	var vol float64
	for _, it := range items {
		mbr = mbr.Union(it.Box)
		vol += it.Box.Volume()
	}
	d := []float64{mbr.Size().X, mbr.Size().Y, mbr.Size().Z}
	sort.Float64s(d)
	return d[2] / d[1], vol / mbr.Volume()
}

// TestSelfJoinMatchesReference: the epoch-pinned self-join must return
// exactly the pair list a nested-loop join over the same items produces, in
// canonical order, and under a limit its first pairs with the exact count —
// at eps 0, 0.3 and 0.8 on the lattice set and on the inputs where the store
// used to run another algorithm than the grid: an elongated set (the plane
// sweep's), a dense set (TOUCH's) and a set of at most 64 items (the nested
// loop's).
func TestSelfJoinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	random := func(n int, span geom.Vec3, minHalf, maxHalf float64) []index.Item {
		items := make([]index.Item, n)
		for i := range items {
			c := geom.V(r.Float64()*span.X, r.Float64()*span.Y, r.Float64()*span.Z)
			h := minHalf + r.Float64()*(maxHalf-minHalf)
			items[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(h, h, h))}
		}
		return items
	}
	elongated := random(600, geom.V(200, 8, 8), 0.2, 0.7)
	dense := random(500, geom.V(20, 20, 20), 2, 3)
	small := random(60, geom.V(6, 6, 6), 0, 0.8)
	if e, _ := joinShape(elongated); e < 12 {
		t.Fatalf("elongated set: elongation %.1f", e)
	}
	if e, c := joinShape(dense); c < 2 || e >= 12 {
		t.Fatalf("dense set: coverage %.2f, elongation %.1f", c, e)
	}

	for _, in := range []struct {
		name  string
		items []index.Item
	}{{"lattice", genItems(500, 0)}, {"elongated", elongated}, {"dense", dense}, {"small", small}} {
		s := mustNew(t, Config{Shards: 4, Workers: 4})
		s.Bootstrap(in.items)
		var pairs int64
		for _, eps := range []float64{0, 0.3, 0.8} {
			want := join.DedupPairs(join.SelfNestedLoop(in.items, join.Options{Eps: eps}))
			if len(want) == 0 {
				t.Fatalf("%s eps=%v: reference join empty; test data too sparse", in.name, eps)
			}
			pairs += 2 * int64(len(want))
			for _, limit := range []int{0, 1} {
				rep := s.SelfJoin(JoinRequest{Eps: eps, Workers: 4, Limit: limit})
				wantPairs := want
				if limit > 0 {
					wantPairs = want[:limit]
				}
				if !reflect.DeepEqual(rep.Pairs, wantPairs) || rep.Count != len(want) {
					t.Fatalf("%s eps=%v limit=%d: %d pairs of count %d, want %d of %d",
						in.name, eps, limit, len(rep.Pairs), rep.Count, len(wantPairs), len(want))
				}
				if rep.Items != len(in.items) || rep.Epoch == 0 {
					t.Fatalf("%s: join reply items=%d epoch=%d", in.name, rep.Items, rep.Epoch)
				}
			}
		}
		if st := s.Stats(); st.Joins != 6 || st.JoinPairs != pairs {
			t.Fatalf("%s: stats joins=%d join_pairs=%d, want 6 / %d", in.name, st.Joins, st.JoinPairs, pairs)
		}
		s.Close()
	}
}

// TestSelfJoinPinnedUnderSwaps: joins run while the writer turns epochs over.
// Every generation of the test data has the same adjacency structure (cubes
// translated in z only), so every join must return the full reference pair
// set — a torn input mixing two generations would lose the pairs between
// elements that ended up in different z layers.
func TestSelfJoinPinnedUnderSwaps(t *testing.T) {
	const n = 400
	s := mustNew(t, Config{Shards: 4, Workers: 4, MaxInFlight: 32})
	defer s.Close()
	s.Bootstrap(genItems(n, 0))
	want := join.DedupPairs(join.SelfNestedLoop(genItems(n, 0), join.Options{}))

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; !stop.Load(); gen++ {
			s.Apply(genUpdates(n, gen))
		}
	}()
	for i := 0; i < 8; i++ {
		rep := s.SelfJoin(JoinRequest{Eps: 0, Workers: 2})
		if !reflect.DeepEqual(rep.Pairs, want) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("join %d (epoch %d): %d pairs, want %d — torn epoch input?",
				i, rep.Epoch, len(rep.Pairs), len(want))
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestEpochAllItems: materialization gathers every item exactly once, in
// shard order — the shards fill their ranges of one slice on the pool, and
// the result equals visiting the shards one after another, for a budget of
// one goroutine, several, or GOMAXPROCS — and appends after what buf already
// holds.
func TestEpochAllItems(t *testing.T) {
	const n = 300
	s := mustNew(t, Config{Shards: 5, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(n, 0))
	e := s.Current()
	var serial []index.Item
	for _, sh := range e.Shards() {
		sh.snap.RangeVisit(e.Bounds().Expand(1e-9), func(it index.Item) bool {
			serial = append(serial, it)
			return true
		})
	}
	for _, workers := range []int{1, 2, 8, 0} {
		items := e.AllItems(nil, workers)
		if len(items) != n {
			t.Fatalf("workers=%d: AllItems returned %d items, want %d", workers, len(items), n)
		}
		if got := idSet(items); len(got) != n {
			t.Fatalf("workers=%d: AllItems returned %d distinct ids, want %d", workers, len(got), n)
		}
		if len(e.Shards()) < 2 || !reflect.DeepEqual(items, serial) {
			t.Fatalf("workers=%d: AllItems over %d shards differs from the shard-by-shard visit", workers, len(e.Shards()))
		}
	}
	prefix := []index.Item{{ID: -1}, {ID: -2}}
	if got := e.AllItems(prefix, 2); !reflect.DeepEqual(got[:2], prefix) || !reflect.DeepEqual(got[2:], serial) {
		t.Fatal("AllItems did not append after the buffer's contents")
	}
	if empty := (&Epoch{}); len(empty.AllItems(nil, 0)) != 0 {
		t.Fatal("empty epoch returned items")
	}
	// The store refuses a NaN corner (TestApplyRefusesInvalidBoxes), so the
	// epoch is assembled by hand. The corner leaves items in the shards'
	// counts but out of their traversals (here all of them: it poisons the
	// epoch bounds). AllItems returns exactly what the shard-by-shard visit
	// returns, and no zero-value item where a traversal fell short.
	withNaN := genItems(n, 0)
	withNaN[7].Box.Min.X = math.NaN()
	var shards []Shard
	for _, part := range partitionSTR(withNaN, 5) {
		shards = append(shards, newShard(boundsOf(part), rtree.FreezeItems(part, rtree.Config{})))
	}
	e2 := newEpoch(1, shards, n)
	serial = serial[:0]
	for _, sh := range e2.Shards() {
		sh.snap.RangeVisit(e2.Bounds().Expand(1e-9), func(it index.Item) bool {
			serial = append(serial, it)
			return true
		})
	}
	if got := e2.AllItems(nil, 2); len(got) == n || len(got) != len(serial) || (len(got) > 0 && !reflect.DeepEqual(got, serial)) {
		t.Fatalf("with a NaN box: AllItems %d items, shard-by-shard visit %d", len(got), len(serial))
	}
}

// TestJoinLimitCountsEveryPair: a limited join carries the first Limit
// pairs of the full canonical list, its JoinCount is the full count, and
// the store's join accounting (Stats().JoinPairs, the join_exec span's
// pairs) moves by the full count while the span's kept is the limit.
func TestJoinLimitCountsEveryPair(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(randomDataset(400, 3))
	full := s.SelfJoin(JoinRequest{Eps: 0.5, Workers: 2})
	count := len(full.Pairs)
	if count < 3 || full.Count != count {
		t.Fatalf("full join: %d pairs, count %d", count, full.Count)
	}
	for _, limit := range []int{1, 2, count, count + 5} {
		before := s.Stats().JoinPairs
		tr := obs.NewTrace("/v1/join")
		rep := s.Query(Request{Ctx: obs.WithTrace(context.Background(), tr), Op: OpJoin,
			Join: JoinRequest{Eps: 0.5, Workers: 2, Limit: limit}})
		root := tr.Finish()
		if rep.Err != nil || rep.Degraded || !reflect.DeepEqual(rep.Pairs, full.Pairs[:min(limit, count)]) {
			t.Fatalf("limit=%d: %d pairs (err %v), want the first %d of the full list", limit, len(rep.Pairs), rep.Err, min(limit, count))
		}
		if rep.JoinCount != count {
			t.Fatalf("limit=%d: JoinCount %d, want %d", limit, rep.JoinCount, count)
		}
		if moved := s.Stats().JoinPairs - before; moved != int64(count) {
			t.Fatalf("limit=%d: JoinPairs moved by %d, want the full count %d", limit, moved, count)
		}
		js := findSpan(root, "join_exec")
		if js == nil || js.Attrs["pairs"] != count || js.Attrs["kept"] != len(rep.Pairs) {
			t.Fatalf("limit=%d: join_exec span %+v, want pairs %d kept %d", limit, js, count, len(rep.Pairs))
		}
	}
}

// partitionSTRReference is the partitioner as first written: sort.Slice
// with Box.Center() recomputed inside the comparator. It is the reference
// the precomputed-key sort must reproduce part for part.
func partitionSTRReference(items []index.Item, k int) [][]index.Item {
	if len(items) == 0 {
		return nil
	}
	k = min(max(k, 1), len(items))
	if k == 1 {
		return [][]index.Item{items}
	}
	nx := max(int(math.Cbrt(float64(k))+1e-9), 1)
	ny := max(int(math.Sqrt(float64(k/nx))+1e-9), 1)
	nz := max(k/(nx*ny), 1)
	sortBy := func(items []index.Item, axis int) {
		sort.Slice(items, func(i, j int) bool {
			a := items[i].Box.Center().Axis(axis)
			b := items[j].Box.Center().Axis(axis)
			if a != b {
				return a < b
			}
			return items[i].ID < items[j].ID
		})
	}
	runs := func(items []index.Item, n int) [][]index.Item {
		n = min(n, len(items))
		var out [][]index.Item
		for i := 0; i < n; i++ {
			if lo, hi := i*len(items)/n, (i+1)*len(items)/n; lo < hi {
				out = append(out, items[lo:hi])
			}
		}
		return out
	}
	var parts [][]index.Item
	sortBy(items, 0)
	for _, slab := range runs(items, nx) {
		sortBy(slab, 1)
		for _, tile := range runs(slab, ny) {
			sortBy(tile, 2)
			parts = append(parts, runs(tile, nz)...)
		}
	}
	return parts
}

// TestPartitionSTRMatchesReferenceComparator: on random inputs full of
// center ties (coarse integer coordinates, shuffled ids), the precomputed-key
// sort cuts exactly the parts the recomputing comparator cut, in the same
// order, so tiles do not change.
func TestPartitionSTRMatchesReferenceComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 9, 64, 513, 4000} {
		for _, k := range []int{1, 3, 8, 16, 27, 64} {
			items := make([]index.Item, n)
			for i, id := range rng.Perm(n) {
				c := geom.V(float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5)))
				h := geom.V(rng.Float64(), float64(rng.Intn(2)), 0.5)
				items[i] = index.Item{ID: int64(id), Box: geom.NewAABB(c.Sub(h), c.Add(h))}
			}
			ref := append([]index.Item(nil), items...)
			got, want := partitionSTR(items, k), partitionSTRReference(ref, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d parts, reference %d", n, k, len(got), len(want))
			}
			for p := range got {
				if !slices.Equal(got[p], want[p]) {
					t.Fatalf("n=%d k=%d: part %d differs from the reference", n, k, p)
				}
			}
			if !slices.Equal(items, ref) {
				t.Fatalf("n=%d k=%d: in-place order differs from the reference", n, k)
			}
		}
	}
}

// TestJoinRequestValidate: Store.Query(OpJoin) and SelfJoin refuse NaN,
// infinite and negative Eps with ErrBadRequest before admission — no join
// runs and no join is counted — and still answer a valid request.
func TestJoinRequestValidate(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(300, 0))
	for _, tc := range []struct {
		eps float64
		ok  bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
		{-1, false}, {-math.SmallestNonzeroFloat64, false},
		{0, true}, {0.25, true},
	} {
		joins := s.Stats().Joins
		rep := s.Query(Request{Op: OpJoin, Join: JoinRequest{Eps: tc.eps}})
		if tc.ok {
			if rep.Err != nil || rep.JoinItems != 300 {
				t.Fatalf("eps=%v: err=%v items=%d, want a full join", tc.eps, rep.Err, rep.JoinItems)
			}
			continue
		}
		if !errors.Is(rep.Err, ErrBadRequest) || rep.Pairs != nil || rep.JoinItems != 0 {
			t.Fatalf("eps=%v: err=%v pairs=%d items=%d, want a refusal", tc.eps, rep.Err, len(rep.Pairs), rep.JoinItems)
		}
		if got := s.Stats().Joins; got != joins {
			t.Fatalf("eps=%v: refused join counted (%d -> %d)", tc.eps, joins, got)
		}
		if jr := s.SelfJoin(JoinRequest{Eps: tc.eps}); jr.Pairs != nil || jr.Items != 0 {
			t.Fatalf("eps=%v: SelfJoin ran a refused join", tc.eps)
		}
	}
}
