package storage

// Concurrent coverage for the BufferPool: readers pinning pages (Get),
// evictions forced by a capacity smaller than the working set, Clear wiping
// the pool mid-flight, and stats snapshots — all at once, so `go test -race`
// patrols the lock discipline that the single-threaded tests never stress.
// The suite runs the same churn against both pool shapes: the classic
// single-shard pool and the sharded large pool.

import (
	"sync"
	"testing"
)

// churnPool hammers the pool from `workers` goroutines with Gets, pins,
// Clears and stats traffic, validating page contents on every read.
func churnPool(t *testing.T, pool *BufferPool, ids []PageID, workers, rounds int) {
	t.Helper()
	pages := len(ids)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := (w*31 + r) % pages
				id := ids[n]
				switch r % 7 {
				case 5:
					// Pinned read: the slice must stay this page across a
					// concurrent Clear.
					pool.Pin(id)
					data, err := pool.Get(id)
					if err != nil {
						t.Errorf("Get(%v): %v", id, err)
						pool.Unpin(id)
						return
					}
					if data[0] != byte(n) {
						t.Errorf("pinned Get(%v): wrong page contents %d, want %d", id, data[0], n)
					}
					pool.Unpin(id)
				default:
					data, err := pool.Get(id)
					if err != nil {
						t.Errorf("Get(%v): %v", id, err)
						return
					}
					if data[0] != byte(n) {
						t.Errorf("Get(%v): wrong page contents %d, want %d", id, data[0], n)
						return
					}
				}
				switch r % 50 {
				case 17:
					pool.Clear()
				case 33:
					_ = pool.Stats()
				case 41:
					pool.ResetStats()
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBufferPoolConcurrentGetEvictClear(t *testing.T) {
	const (
		pages    = 64
		capacity = 8 // far below the working set, so evictions are constant
		workers  = 8
		rounds   = 300
	)
	disk := NewDisk(DiskConfig{PageSize: 128})
	ids := make([]PageID, pages)
	for i := range ids {
		id := disk.Allocate()
		buf := make([]byte, 128)
		buf[0] = byte(i)
		if err := disk.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	pool := NewBufferPool(disk, capacity)
	if len(pool.shards) != 1 {
		t.Fatalf("capacity %d pool should be single-shard, got %d shards", capacity, len(pool.shards))
	}

	churnPool(t, pool, ids, workers, rounds)

	st := pool.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	// The pool must have stayed within capacity through the churn.
	cached, coherent := pool.cached()
	if cached > capacity || !coherent {
		t.Fatalf("pool invariants broken: %d cached (capacity %d), coherent=%v",
			cached, capacity, coherent)
	}
}

func TestBufferPoolShardedConcurrent(t *testing.T) {
	const (
		pages    = 512
		capacity = 128 // >= shardThreshold, so the pool shards
		workers  = 8
		rounds   = 400
	)
	disk := NewDisk(DiskConfig{PageSize: 128})
	ids := make([]PageID, pages)
	for i := range ids {
		id := disk.Allocate()
		buf := make([]byte, 128)
		buf[0] = byte(i)
		if err := disk.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	pool := NewBufferPool(disk, capacity)
	if len(pool.shards) != poolShardCount {
		t.Fatalf("capacity %d pool should have %d shards, got %d", capacity, poolShardCount, len(pool.shards))
	}
	// Shard capacities must sum to the configured capacity.
	var sum int
	for i := range pool.shards {
		sum += pool.shards[i].capacity
	}
	if sum != capacity {
		t.Fatalf("shard capacities sum to %d, want %d", sum, capacity)
	}

	churnPool(t, pool, ids, workers, rounds)

	st := pool.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	cached, coherent := pool.cached()
	if cached > capacity || !coherent {
		t.Fatalf("sharded pool invariants broken: %d cached (capacity %d), coherent=%v",
			cached, capacity, coherent)
	}
}
