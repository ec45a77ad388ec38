package serve

// Tests of the range limit pushed into the shard scan: a limited read is the
// unlimited one cut to its limit, it stops the traversal there, it caches
// under its own key, and a stop never hides a shard that failed before it.

import (
	"fmt"
	"slices"
	"testing"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// limitBox reaches every shard of a genItems store.
var limitBox = geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))

// TestDegradedStoppedRead: the first shard fails its slice of the fan-out
// and the read then stops early on the next ones. The stop is not the
// whole answer the visitor asked for — shard 0 never contributed — so the
// reply is degraded with the shard's error, in both the streaming form and
// the limited materialising one.
func TestDegradedStoppedRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func(got *[]index.Item) Request
	}{
		{"streaming", func(got *[]index.Item) Request {
			return Request{Op: OpRange, Query: limitBox, Visit: func(it index.Item) bool {
				*got = append(*got, it)
				return len(*got) < 3
			}}
		}},
		{"limited", func(*[]index.Item) Request {
			return Request{Op: OpRange, Query: limitBox, Limit: 3}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 16})
			defer s.Close()
			s.Bootstrap(genItems(400, 0))
			armShardFault(t, faultinject.Spec{ErrRate: 1, Count: 1})

			var got []index.Item
			rep := s.Query(tc.req(&got))
			if rep.Items != nil {
				got = rep.Items
			}
			if rep.Err != nil || !rep.Degraded || len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 0 {
				t.Fatalf("err=%v degraded=%v shard errors %v, want degraded with shard 0's error", rep.Err, rep.Degraded, rep.ShardErrors)
			}
			if len(got) != 3 {
				t.Fatalf("%d items, want the 3 the read stopped at", len(got))
			}
			if st := s.Stats(); st.Degraded != 1 {
				t.Fatalf("Degraded counter = %d, want 1", st.Degraded)
			}
			// Disarmed, the same read is clean: the degraded one left no
			// cache entry behind.
			clean := s.Query(tc.req(new([]index.Item)))
			if clean.Err != nil || clean.Degraded || clean.Plan.CacheHit {
				t.Fatalf("after the fault: err=%v degraded=%v hit=%v, want a clean miss", clean.Err, clean.Degraded, clean.Plan.CacheHit)
			}
		})
	}
}

// TestRangeLimitIsPrefix: at every limit a materialising range answers the
// unlimited reply at the same epoch cut to the limit, item for item in shard
// order; <= 0 is every match.
func TestRangeLimitIsPrefix(t *testing.T) {
	const n = 400
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(n, 0))
	full := checkedQuery(t, s, Request{Op: OpRange, Query: limitBox})
	all := full.Items
	if len(all) != n {
		t.Fatalf("unlimited read: %d items, want %d", len(all), n)
	}
	for _, limit := range []int{-1, 0, 1, 16, 99, n - 1, n, n + 5} {
		rep := checkedQuery(t, s, Request{Op: OpRange, Query: limitBox, Limit: limit})
		want := all
		if limit > 0 {
			want = all[:min(limit, n)]
		}
		if rep.Degraded || !slices.Equal(rep.Items, want) {
			t.Errorf("limit %d: degraded=%v, %d items, not the first %d of the unlimited read", limit, rep.Degraded, len(rep.Items), len(want))
		}
		if rep.Plan.FanOut != full.Plan.FanOut {
			t.Errorf("limit %d: fan-out %d, want the %d shards the box reaches", limit, rep.Plan.FanOut, full.Plan.FanOut)
		}
	}
}

// TestRangeLimitStopsTraversal pins the work a limited range does: over
// 20 000 matches, a limit of 16 produces 16 results in the index counters,
// not a full traversal cut afterwards.
func TestRangeLimitStopsTraversal(t *testing.T) {
	const n = 20000
	s := mustNew(t, Config{Shards: 4, Workers: 2})
	defer s.Close()
	s.Bootstrap(genItems(n, 0))
	box := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, n/32+1, 8))
	if rep := checkedQuery(t, s, Request{Op: OpRange, Query: box}); rep.Counters.Results != n {
		t.Fatalf("unlimited read: %d results counted, want %d", rep.Counters.Results, n)
	}
	rep := checkedQuery(t, s, Request{Op: OpRange, Query: box, Limit: 16})
	if len(rep.Items) != 16 || rep.Counters.Results != 16 {
		t.Fatalf("limit 16: %d items, %d results counted, want 16 and 16", len(rep.Items), rep.Counters.Results)
	}
}

// TestCacheKeysRangeLimit: with the cache on, the same box at limits 0, 1
// and 16, asked in either order and twice over, answers exactly what the
// uncached store answers, and a limited entry never answers a read with
// another limit. A read that stopped at its limit fills its entry.
func TestCacheKeysRangeLimit(t *testing.T) {
	items := genItems(400, 0)
	plain := mustNew(t, Config{Shards: 4, Workers: 2})
	defer plain.Close()
	plain.Bootstrap(items)
	want := map[int][]index.Item{}
	for _, limit := range []int{0, 1, 16} {
		want[limit] = checkedQuery(t, plain, Request{Op: OpRange, Query: limitBox, Limit: limit}).Items
	}
	for _, order := range [][]int{{0, 1, 16}, {16, 1, 0}} {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 16})
			defer s.Close()
			s.Bootstrap(items)
			for round := 0; round < 2; round++ {
				for _, limit := range order {
					rep := checkedQuery(t, s, Request{Op: OpRange, Query: limitBox, Limit: limit})
					if !slices.Equal(rep.Items, want[limit]) {
						t.Errorf("round %d limit %d: %d items, not the uncached store's %d", round, limit, len(rep.Items), len(want[limit]))
					}
					if rep.Plan.CacheHit != (round == 1) {
						t.Errorf("round %d limit %d: cache hit %v", round, limit, rep.Plan.CacheHit)
					}
				}
			}
			// -1 is the unlimited read's entry, not a limited one.
			if rep := checkedQuery(t, s, Request{Op: OpRange, Query: limitBox, Limit: -1}); !rep.Plan.CacheHit || !slices.Equal(rep.Items, want[0]) {
				t.Errorf("limit -1: hit=%v %d items, want the unlimited entry's %d", rep.Plan.CacheHit, len(rep.Items), len(want[0]))
			}
		})
	}
}
