package serve

// Serving-layer crash torture: the snapshotter dies at randomized write
// offsets (injected failing files) while concurrent readers hammer the
// store under -race. The invariants: reader results are never torn (every
// query observes a full published generation), snapshot failures never take
// serving down, and a clean store over the same directory afterwards either
// recovers exactly one of the states that was published or reports
// corruption cleanly.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
)

type crashFile struct {
	f      *os.File
	budget *atomic.Int64
}

var errCrash = fmt.Errorf("injected crash: write budget exhausted")

func (cf *crashFile) ReadAt(p []byte, off int64) (int, error) { return cf.f.ReadAt(p, off) }
func (cf *crashFile) Close() error                            { return cf.f.Close() }

func (cf *crashFile) WriteAt(p []byte, off int64) (int, error) {
	left := cf.budget.Add(-int64(len(p))) + int64(len(p))
	if left <= 0 {
		return 0, errCrash
	}
	if left < int64(len(p)) {
		n, _ := cf.f.WriteAt(p[:left], off)
		return n, errCrash
	}
	return cf.f.WriteAt(p, off)
}

func (cf *crashFile) Sync() error {
	if cf.budget.Load() <= 0 {
		return errCrash
	}
	return cf.f.Sync()
}

func injectCrashes(t *testing.T, ps *persist.Store, budget *atomic.Int64) {
	t.Helper()
	err := ps.SetFileHooks(
		func(path string) (persist.BackingFile, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return nil, err
			}
			return &crashFile{f: f, budget: budget}, nil
		},
		func(path string) (persist.BackingFile, int64, error) {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, 0, err
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, 0, err
			}
			return &crashFile{f: f, budget: budget}, st.Size(), nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTortureSnapshotterCrashWithConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			ps, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			budget := &atomic.Int64{}
			// Somewhere between "dies during the first segment" and "survives
			// a few epochs".
			budget.Store(4096 + rng.Int63n(1<<20))
			injectCrashes(t, ps, budget)

			st, err := Open(Config{Shards: 3, Workers: 2, Persist: ps})
			if err != nil {
				t.Fatal(err)
			}

			// published maps epoch seq -> item count of that generation; the
			// writer records it, readers cross-check every answer against it.
			var published sync.Map
			published.Store(uint64(0), 0)

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for w := 0; w < 3; w++ {
				readers.Add(1)
				go func(w int) {
					defer readers.Done()
					universe := geom.NewAABB(geom.V(-1, -1, -1), geom.V(101, 101, 101))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						items, epoch := st.RangeAll(universe, nil)
						if want, ok := published.Load(epoch); ok && want.(int) != len(items) {
							t.Errorf("reader %d: epoch %d served %d items, published %d",
								w, epoch, len(items), want.(int))
							return
						}
						st.KNN(geom.V(50, 50, 50), 5, nil)
					}
				}(w)
			}

			// Writer: cumulative upserts, one epoch per batch, while the
			// snapshotter races against the dying disk in the background.
			count := 0
			states := map[uint64]int{0: 0}
			for b := 0; b < 8; b++ {
				batch := make([]Update, 25)
				for j := range batch {
					id := int64(count + j + 1)
					c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
					batch[j] = Update{ID: id, Box: geom.AABBFromCenter(c, geom.V(0.4, 0.4, 0.4))}
				}
				count += len(batch)
				seq := st.Apply(batch)
				states[seq] = count
				published.Store(seq, count)
			}
			close(stop)
			readers.Wait()
			st.Close() // final snapshot attempt may also die — must not hang
			ps.Close()

			// A clean stack over the same dir: either it recovers exactly one
			// published state, or it reports corruption cleanly.
			ps2, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ps2.Close()
			st2, err := Open(Config{Shards: 3, Workers: 2, Persist: ps2})
			if err != nil {
				t.Logf("trial %d: clean corruption report: %v", trial, err)
				return
			}
			defer st2.Close()
			cur := st2.Current()
			wantCount, ok := states[cur.Seq()]
			if !ok {
				t.Fatalf("recovered epoch %d was never published", cur.Seq())
			}
			got := 0
			var iter func(index.Item) bool = func(index.Item) bool { got++; return true }
			cur.RangeVisit(geom.NewAABB(geom.V(-1, -1, -1), geom.V(101, 101, 101)), iter)
			if got != wantCount {
				t.Fatalf("recovered epoch %d has %d items, published state had %d", cur.Seq(), got, wantCount)
			}
		})
	}
}
