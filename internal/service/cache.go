package service

import (
	"container/list"
	"sync"

	"mpstream/internal/core"
	"mpstream/internal/dse/search"
	"mpstream/internal/surface"
)

// lruCache is a thread-safe LRU keyed by canonical fingerprint,
// parameterized over the cached value. The simulator is deterministic,
// so a cached value is exactly what a re-execution would produce;
// entries are shared read-only between the cache and responses and
// must not be mutated.
//
// Two instantiations exist: the run-result cache (fingerprint of one
// (target, config) pair -> *core.Result, also consulted per grid point
// by sweeps and per evaluation by optimizer jobs) and the optimizer
// cache (fingerprint of a whole (target, base, space, op, strategy,
// budget, seed) request -> *search.Result).
type lruCache[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry[V any] struct {
	key string
	val V
}

// resultCache caches completed run results.
type resultCache = lruCache[*core.Result]

// optimizeCache caches completed optimizer results.
type optimizeCache = lruCache[*search.Result]

// surfaceCache caches completed bandwidth–latency surfaces.
type surfaceCache = lruCache[*surface.Surface]

// newResultCache builds a run-result cache holding up to max entries;
// max <= 0 disables caching entirely (every lookup misses, puts are
// dropped).
func newResultCache(max int) *resultCache { return newLRU[*core.Result](max) }

// newOptimizeCache builds an optimizer-result cache with the same
// max/disable semantics.
func newOptimizeCache(max int) *optimizeCache { return newLRU[*search.Result](max) }

// newSurfaceCache builds a surface cache with the same max/disable
// semantics.
func newSurfaceCache(max int) *surfaceCache { return newLRU[*surface.Surface](max) }

func newLRU[V any](max int) *lruCache[V] {
	return &lruCache[V]{
		max:   max,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// enabled reports whether the cache stores anything at all; a nil cache
// (the one checks resolve through) never does.
func (c *lruCache[V]) enabled() bool { return c != nil && c.max > 0 }

// get returns the cached value for key, promoting it to most recent.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// put inserts or refreshes key, evicting the least recently used entry
// when over capacity.
func (c *lruCache[V]) put(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry[V]).key)
		c.evictions++
	}
}

// CacheStats is the cache telemetry /v1/healthz reports.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// stats snapshots the counters.
func (c *lruCache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
