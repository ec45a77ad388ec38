package serve

// Epoch-keyed result cache with hot-region query coalescing. An epoch is
// immutable, so a result computed against it is valid for the epoch's entire
// lifetime and needs no invalidation logic at all: each epoch owns its own
// bounded cache map, and retirement drops the whole map in one pointer write.
// Identical queries racing on a cold entry coalesce — the first requester
// executes, the rest block on the entry's done channel and share the result.

import (
	"encoding/binary"
	"math"
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// cacheEntry is one cached (or in-flight) result. The done channel closes
// when items is final; waiters hold the entry pointer directly, so an entry
// evicted or dropped mid-flight still completes for everyone waiting on it.
// failed marks an abandoned entry: the owner's execution was cancelled or
// degraded, so items must not be trusted — waiters re-execute for themselves.
type cacheEntry struct {
	done   chan struct{}
	failed bool
	items  []index.Item
}

// epochCache is the bounded per-epoch result map. Eviction is FIFO over the
// insertion order — with per-epoch lifetimes bounded by the ingest cadence,
// insertion age and recency track each other closely enough that the simpler
// policy wins ("LRU-ish" without per-hit bookkeeping on the read path).
type epochCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	fifo    []string
}

func newEpochCache(capacity int) *epochCache {
	return &epochCache{cap: capacity, entries: make(map[string]*cacheEntry, capacity)}
}

// lookup returns the entry for key and whether the caller owns the fill
// obligation: owner=true means the entry was just created and the caller must
// execute the query and call fill (waiters are blocked on it). owner=false
// means the entry exists — wait on entry.done before reading entry.items.
// The key is bytes so a hit costs no allocation (the map read converts the
// key in place); the string copy is made only when a miss must store it.
func (c *epochCache) lookup(key []byte) (e *cacheEntry, owner bool) {
	c.mu.Lock()
	if c.entries == nil {
		// Dropped (epoch retired mid-query): behave as an always-miss cache
		// with no registration, so the caller just executes.
		c.mu.Unlock()
		return nil, true
	}
	if e = c.entries[string(key)]; e != nil {
		c.mu.Unlock()
		return e, false
	}
	e = &cacheEntry{done: make(chan struct{})}
	ks := string(key)
	c.entries[ks] = e
	c.fifo = append(c.fifo, ks)
	if len(c.fifo) > c.cap {
		evict := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.entries, evict)
	}
	c.mu.Unlock()
	return e, true
}

// fill publishes the owner's result and releases every coalesced waiter.
func (e *cacheEntry) fill(items []index.Item) {
	e.items = items
	close(e.done)
}

// abandon releases waiters without publishing a result: the owner's query was
// cancelled or came back incomplete, and a partial result must never be
// served as a cache hit. The failed flag is written before the close, so
// waiters that observe done closed see it.
func (e *cacheEntry) abandon() {
	e.failed = true
	close(e.done)
}

// remove forgets the entry under key so the next identical query re-executes;
// paired with abandon on the entry itself. Missing keys (already evicted or
// dropped) are fine.
func (c *epochCache) remove(key []byte) {
	c.mu.Lock()
	if c.entries != nil {
		delete(c.entries, string(key))
	}
	c.mu.Unlock()
}

// ready reports whether the entry was already filled — distinguishing a plain
// hit from a coalesced wait, for the stats counters only.
func (e *cacheEntry) ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// drop empties the cache wholesale; called when the owning epoch retires.
// In-flight owners and waiters keep working on their entry pointers.
func (c *epochCache) drop() {
	c.mu.Lock()
	c.entries = nil
	c.fifo = nil
	c.mu.Unlock()
}

// size returns the current entry count.
func (c *epochCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// itemsKey fingerprints a materialising range or kNN exactly (bit-for-bit on
// the float parameters, and a range's limit, every limit <= 0 being the
// same unlimited read): the cache must never conflate two queries, and
// near-miss reuse is the coalescing window's job, not the key's. It returns a
// fixed array and the length in use, so the hit path builds its key on the
// stack.
func itemsKey(req *Request) (b [1 + 7*8]byte, n int) {
	if req.Op == OpKNN {
		b[0] = 'k'
		putVec(b[1:], req.Point)
		binary.LittleEndian.PutUint64(b[25:], uint64(req.K))
		return b, 1 + 3*8 + 8
	}
	b[0] = 'r'
	putVec(b[1:], req.Query.Min)
	putVec(b[25:], req.Query.Max)
	binary.LittleEndian.PutUint64(b[49:], uint64(max(req.Limit, 0)))
	return b, len(b)
}

func putVec(b []byte, v geom.Vec3) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(v.X))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v.Y))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(v.Z))
}
