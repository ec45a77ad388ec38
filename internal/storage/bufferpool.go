package storage

import (
	"container/list"
	"sync"
)

// BufferPoolStats reports hit/miss counts of a buffer pool.
type BufferPoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns the fraction of lookups served from a cached frame:
// Hits / (Hits + Misses).
func (s BufferPoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BufferPool caches pages of a Pager with an LRU replacement policy. The
// paper's experiments run with a cold cache that is cleared between queries;
// Clear provides exactly that. Callers that hold a page across other pool
// operations (the paged R-Tree reader assembling a record that straddles
// pages) pin it first: a pinned page is never evicted — not by capacity
// pressure, not by Evict, not by Clear — until its last pin is dropped.
//
// Large pools split the frame cache into independently locked shards (pages
// hash to a shard by id), so concurrent readers touching different pages
// stop serializing on one mutex. Small pools (below shardThreshold frames)
// stay single-sharded, preserving exact global-LRU eviction order for the
// paper's cold-cache experiments.
type BufferPool struct {
	pager    Pager
	capacity int

	shards []poolShard
	mask   uint32
}

// poolShard is one independently locked slice of the frame cache. Each shard
// runs the full pin-aware LRU protocol over its subset of the page-id space.
type poolShard struct {
	capacity int

	mu    sync.Mutex
	lru   *list.List // of PageID, front = most recently used
	index map[PageID]*list.Element
	data  map[PageID][]byte
	pins  map[PageID]int
	stats BufferPoolStats
}

// shardThreshold is the capacity at which the pool starts sharding. Below it
// a single shard preserves exact global LRU semantics (the deterministic
// eviction-order tests and the cold-cache experiment protocol rely on them);
// at or above it, lock contention dominates and approximate per-shard LRU is
// the right trade.
const shardThreshold = 64

// poolShardCount is how many shards a sharded pool uses (power of two).
const poolShardCount = 8

// NewBufferPool returns a pool caching up to capacity pages of the pager.
// A capacity of 0 disables caching entirely (every Get goes to the pager).
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	n := 1
	if capacity >= shardThreshold {
		n = poolShardCount
	}
	p := &BufferPool{
		pager:    pager,
		capacity: capacity,
		shards:   make([]poolShard, n),
		mask:     uint32(n - 1),
	}
	base, extra := capacity/n, capacity%n
	for i := range p.shards {
		sh := &p.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.lru = list.New()
		sh.index = make(map[PageID]*list.Element)
		sh.data = make(map[PageID][]byte)
		sh.pins = make(map[PageID]int)
	}
	return p
}

// Capacity returns the configured capacity in pages.
func (p *BufferPool) Capacity() int { return p.capacity }

// shard maps a page id to its owning shard. The multiplier spreads the dense
// sequential ids of a paged snapshot across shards instead of striping runs
// of adjacent pages onto one.
func (p *BufferPool) shard(id PageID) *poolShard {
	return &p.shards[(uint32(id)*2654435761)>>16&p.mask]
}

// Get returns the contents of the page, reading it from the pager on a miss.
// The returned slice is owned by the pool and must not be modified; callers
// that need it to stay coherent across further pool traffic must Pin the page
// for the duration.
func (p *BufferPool) Get(id PageID) ([]byte, error) {
	sh := p.shard(id)
	sh.mu.Lock()
	if el, ok := sh.index[id]; ok {
		sh.lru.MoveToFront(el)
		sh.stats.Hits++
		data := sh.data[id]
		sh.mu.Unlock()
		return data, nil
	}
	sh.stats.Misses++
	sh.mu.Unlock()

	data, err := p.pager.Read(id)
	if err != nil {
		return nil, err
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.capacity > 0 || sh.pins[id] > 0 {
		// A pinned page is cached even by a zero-capacity (cold-cache) pool:
		// the pin is a promise that the caller's slice stays the page, and
		// that promise must survive a concurrent Get of the same id.
		if _, ok := sh.index[id]; !ok {
			sh.index[id] = sh.lru.PushFront(id)
			sh.data[id] = data
			sh.evictOverCapacityLocked()
		} else {
			// Raced with another miss of the same id: keep the resident copy
			// so every caller that pinned it observes one stable slice.
			data = sh.data[id]
		}
	}
	return data, nil
}

// Pin marks the page as unevictable until a matching Unpin. Pinning a page
// that is not (yet) resident is allowed — the pin takes effect the moment a
// Get brings it in, which is exactly the interleaving a concurrent
// Get/Evict of the same id produces.
func (p *BufferPool) Pin(id PageID) {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pins[id]++
}

// Unpin drops one pin. It panics on a page that was not pinned: an unbalanced
// Unpin is a lifecycle bug that would otherwise surface as an impossible
// eviction much later. Dropping the last pin re-runs the capacity scan, so a
// page that was admitted only because it was pinned (capacity-0 cold-cache
// pools) or kept the pool in overflow leaves immediately rather than
// lingering as a phantom cache hit.
func (p *BufferPool) Unpin(id PageID) {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.pins[id]
	if !ok {
		panic("storage: Unpin of unpinned page")
	}
	if n > 1 {
		sh.pins[id] = n - 1
		return
	}
	delete(sh.pins, id)
	if sh.lru.Len() > sh.capacity {
		sh.evictOverCapacityLocked()
	}
}

// Evict drops the page from the cache and reports whether it is gone. A
// pinned page is not evicted (returns false); an absent page is trivially
// gone (returns true).
func (p *BufferPool) Evict(id PageID) bool {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pins[id] > 0 {
		return false
	}
	el, ok := sh.index[id]
	if !ok {
		return true
	}
	sh.removeLocked(el, id)
	return true
}

// evictOverCapacityLocked brings the shard back under capacity, scanning from
// the LRU end and skipping pinned pages. If every resident page is pinned the
// shard runs over capacity rather than evicting a page someone holds — the
// overflow drains as pins drop and later insertions re-run the scan.
func (sh *poolShard) evictOverCapacityLocked() {
	over := sh.lru.Len() - sh.capacity
	if sh.capacity <= 0 {
		// capacity 0 admits pages only for their pin's lifetime; everything
		// unpinned is surplus.
		over = sh.lru.Len()
	}
	for el := sh.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		id := el.Value.(PageID)
		if sh.pins[id] == 0 {
			sh.removeLocked(el, id)
			sh.stats.Evictions++
			over--
		}
		el = prev
	}
}

// removeLocked drops one resident page. Caller holds sh.mu.
func (sh *poolShard) removeLocked(el *list.Element, id PageID) {
	sh.lru.Remove(el)
	delete(sh.index, id)
	delete(sh.data, id)
}

// Clear drops every unpinned cached page, emulating the paper's cold-cache
// protocol ("the cache is cleaned between any two queries"). Pinned pages
// stay resident: a cold-cache sweep must not invalidate a page a reader is
// holding mid-record.
func (p *BufferPool) Clear() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; {
			prev := el.Prev()
			id := el.Value.(PageID)
			if sh.pins[id] == 0 {
				sh.removeLocked(el, id)
			}
			el = prev
		}
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of the hit/miss counters, summed across shards.
func (p *BufferPool) Stats() BufferPoolStats {
	var out BufferPoolStats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out.Hits += sh.stats.Hits
		out.Misses += sh.stats.Misses
		out.Evictions += sh.stats.Evictions
		sh.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the hit/miss counters without dropping cached pages.
func (p *BufferPool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.stats = BufferPoolStats{}
		sh.mu.Unlock()
	}
}

// resident reports whether the page is currently cached (test hook).
func (p *BufferPool) resident(id PageID) bool {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.index[id]
	return ok
}

// cached returns the total resident page count and whether every shard's
// internal structures agree (test hook for the -race invariant checks).
func (p *BufferPool) cached() (n int, coherent bool) {
	coherent = true
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		d, l, ix := len(sh.data), sh.lru.Len(), len(sh.index)
		sh.mu.Unlock()
		if d != l || ix != d {
			coherent = false
		}
		n += d
	}
	return n, coherent
}
