package serve

import (
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
					got, seq := s.RangeAll(universe, buf[:0])
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
					got, _ := s.KNN(p, 5, buf[:0])
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
		seq := s.Apply(genUpdates(n, gen))
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
							got, _ := s.RangeAll(box, nil)
							if !reflect.DeepEqual(sortedIDs(got), want) {
								t.Fatalf("range %v (run %d): %d items, want %d", box, rep, len(got), len(want))
							}
						}
					}
					for q := 0; q < 25; q++ {
						p, k := at(1), 1+rng.Intn(20)
						want := rankDistances(ref.KNN(p, k), p)
						for rep := 0; rep < 2; rep++ {
							got, _ := s.KNN(p, k, nil)
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
	if j.Plan.Algorithm == "" || j.Plan.FanOut <= 0 {
		t.Fatalf("join plan must name the algorithm and the fan-out: %+v", j.Plan)
	}
	if j.JoinAlgo.String() != j.Plan.Algorithm {
		t.Fatalf("join algo %v disagrees with plan %q", j.JoinAlgo, j.Plan.Algorithm)
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
		got, _ := s.KNN(p, k, nil)
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
			s.Range(universe, func(index.Item) bool {
				time.Sleep(200 * time.Microsecond)
				return true
			})
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

// TestBackgroundBuilderIngest checks the async path: enqueued batches become
// visible in a later epoch without any synchronous Apply call.
func TestBackgroundBuilderIngest(t *testing.T) {
	s := mustNew(t, Config{Shards: 3, Workers: 2})
	s.Bootstrap(genItems(100, 0))

	for gen := 1; gen <= 3; gen++ {
		s.Enqueue(genUpdates(100, gen))
	}
	deadline := time.Now().Add(2 * time.Second)
	universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 40))
	for {
		got, _ := s.RangeAll(universe, nil)
		if len(got) == 100 && got[0].Box.Min.Z == 4*3 {
			allFinal := true
			for _, it := range got {
				if it.Box.Min.Z != 4*3 {
					allFinal = false
				}
			}
			if allFinal {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueued batches never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
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
	got, _ := s.RangeAll(universe, nil)
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

// TestSelfJoinMatchesReference: the epoch-pinned self-join must return
// exactly the pair set a nested-loop join over the same items produces,
// whichever algorithm the planner (or the caller) picks.
func TestSelfJoinMatchesReference(t *testing.T) {
	const n = 500
	s := mustNew(t, Config{Shards: 4, Workers: 4})
	defer s.Close()
	items := genItems(n, 0)
	s.Bootstrap(items)

	want := join.SelfNestedLoop(items, join.Options{})
	want = join.DedupPairs(want)
	if len(want) == 0 {
		t.Fatal("reference join empty; test data too sparse")
	}

	auto := s.SelfJoin(JoinRequest{Eps: 0})
	if !reflect.DeepEqual(auto.Pairs, want) {
		t.Fatalf("auto join (%v): %d pairs, want %d", auto.Algo, len(auto.Pairs), len(want))
	}
	if auto.Items != n || auto.Epoch == 0 {
		t.Fatalf("join reply items=%d epoch=%d", auto.Items, auto.Epoch)
	}
	for _, algo := range []join.Algorithm{join.AlgoGrid, join.AlgoRTree, join.AlgoTOUCH} {
		rep := s.SelfJoin(JoinRequest{Eps: 0, Algo: algo, Force: true, Workers: 4})
		if rep.Algo != algo {
			t.Fatalf("forced %v ran %v", algo, rep.Algo)
		}
		if !reflect.DeepEqual(rep.Pairs, want) {
			t.Fatalf("%v: %d pairs, want %d", algo, len(rep.Pairs), len(want))
		}
	}
	if st := s.Stats(); st.Joins != 4 || st.JoinPairs != int64(4*len(want)) {
		t.Fatalf("stats joins=%d join_pairs=%d, want 4 / %d", st.Joins, st.JoinPairs, 4*len(want))
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
			t.Fatalf("join %d (epoch %d, %v): %d pairs, want %d — torn epoch input?",
				i, rep.Epoch, rep.Algo, len(rep.Pairs), len(want))
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestEpochAllItems: materialization gathers every item exactly once.
func TestEpochAllItems(t *testing.T) {
	const n = 300
	s := mustNew(t, Config{Shards: 5, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(n, 0))
	e := s.Current()
	items := e.AllItems(nil)
	if len(items) != n {
		t.Fatalf("AllItems returned %d items, want %d", len(items), n)
	}
	if got := idSet(items); len(got) != n {
		t.Fatalf("AllItems returned %d distinct ids, want %d", len(got), n)
	}
	if empty := (&Epoch{}); len(empty.AllItems(nil)) != 0 {
		t.Fatal("empty epoch returned items")
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
