package serve

// Conformance suite for the planner-configured store the benchmark harness
// runs (Config.Planner set, result cache on): it must answer every query
// identically to every static configuration the store still offers — R-Tree
// shards of different node fan-outs and shard counts, cache off. Ranges
// compare exact id sets, kNN compares the per-rank distance sequence
// (tie-breaking between equidistant items may differ between layouts), joins
// compare the canonical pair list.

import (
	"math/rand"
	"reflect"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/planner"
	"spatialsim/internal/rtree"
)

// staticConfigs is the menu of static store configurations the
// planner-configured store is checked against.
func staticConfigs() map[string]Config {
	return map[string]Config{
		"rtree":          {Shards: 4, Workers: 2, Build: RTreeBuilder(rtree.Config{})},
		"rtree-fanout4":  {Shards: 4, Workers: 2, Build: RTreeBuilder(rtree.Config{MaxEntries: 4})},
		"rtree-fanout64": {Shards: 4, Workers: 2, Build: RTreeBuilder(rtree.Config{MaxEntries: 64})},
		"one-shard":      {Shards: 1, Workers: 2},
		"many-shards":    {Shards: 16, Workers: 2},
	}
}

func TestPlannerConformsToEveryStaticConfiguration(t *testing.T) {
	datasets := map[string][]index.Item{
		"uniform":   uniformDataset(3000, 42),
		"clustered": clusteredDataset(3000, 43),
	}
	for dsName, items := range datasets {
		t.Run(dsName, func(t *testing.T) {
			// The planner-configured store, with the result cache on so cached
			// and computed answers are both exercised against the baselines.
			auto := mustNew(t, Config{Shards: 4, Workers: 2, Planner: planner.Default(), CacheEntries: 256})
			defer auto.Close()
			auto.Bootstrap(items)

			statics := make(map[string]*Store)
			for name, cfg := range staticConfigs() {
				st := mustNew(t, cfg)
				defer st.Close()
				st.Bootstrap(items)
				statics[name] = st
			}

			rng := rand.New(rand.NewSource(7))
			for q := 0; q < 40; q++ {
				lo := geom.V(rng.Float64()*90, rng.Float64()*90, rng.Float64()*90)
				ext := geom.V(rng.Float64()*25+1, rng.Float64()*25+1, rng.Float64()*25+1)
				box := geom.NewAABB(lo, lo.Add(ext))
				// Every query repeats to drive the cache path.
				for rep := 0; rep < 2; rep++ {
					got, _ := rangeAll(t, auto, box, nil)
					want := sortedIDs(got)
					for name, st := range statics {
						ref, _ := rangeAll(t, st, box, nil)
						if !reflect.DeepEqual(want, sortedIDs(ref)) {
							t.Fatalf("range %v: planner store answered %d items, static %s answered %d", box, len(got), name, len(ref))
						}
					}
				}
			}

			for q := 0; q < 25; q++ {
				p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
				k := 1 + rng.Intn(20)
				for rep := 0; rep < 2; rep++ {
					got, _ := knnAll(t, auto, p, k, nil)
					want := rankDistances(got, p)
					for name, st := range statics {
						ref, _ := knnAll(t, st, p, k, nil)
						refD := rankDistances(ref, p)
						if !reflect.DeepEqual(want, refD) {
							t.Fatalf("knn p=%v k=%d: planner store distances %v, static %s distances %v", p, k, want, name, refD)
						}
					}
				}
			}

			rep := auto.SelfJoin(JoinRequest{Eps: 1.5, Workers: 2})
			for name, st := range statics {
				ref := st.SelfJoin(JoinRequest{Eps: 1.5, Workers: 2})
				if !reflect.DeepEqual(rep.Pairs, ref.Pairs) {
					t.Fatalf("self-join: planner store found %d pairs, static %s found %d", len(rep.Pairs), name, len(ref.Pairs))
				}
			}

			if st := auto.Stats(); st.Cache == nil || st.Cache.Hits == 0 {
				t.Fatalf("repeated queries must produce cache hits, stats: %+v", st.Cache)
			}
		})
	}
}
