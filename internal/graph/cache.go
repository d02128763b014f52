package graph

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"div/internal/obs"
)

// This file is the suite-level graph-artifact cache: a ref-counted,
// byte-bounded LRU keyed by (family, n, params, build seed) that hands
// out shared *Graph instances — and with them the per-graph ArcIndex
// and any memoized scalars (spectral λ estimates) — so experiments
// that revisit the same grid point stop rebuilding O(n+m) structure.
//
// Concurrency model: Get resolves the key under the cache lock but
// builds outside it; concurrent requests for the same key share one
// build via a ready channel. The dedup pins each cold build to one
// calling goroutine, but the build itself is no longer serial: the
// seeded builders stripe their phases over the work-stealing pool
// (BuildOpts.Workers), so a single cold miss can still saturate the
// machine. Entries referenced by a live Handle
// (refs > 0) are pinned and never evicted. Eviction only forgets the
// cache's pointer — Graphs are immutable, so evicted-but-referenced
// instances stay valid and are reclaimed by GC when released.
//
// Metrics on obs.Default:
//
//	graph_cache_hits_total    Get calls resolved from the cache
//	graph_cache_misses_total  Get calls that built the artifact
//	graph_cache_bytes         resident bytes after the last Get/Release
//	graph_cache_evictions_total entries evicted to stay under the bound
//	graph_cache_build_nanos   artifact build duration per miss
//	graph_cache_wait_nanos    time a hit waited on an in-flight build
//	graph_cache_evict_nanos   duration of each eviction pass that
//	                          actually evicted something

var (
	cacheHits      = obs.Default.Counter("graph_cache_hits_total")
	cacheMisses    = obs.Default.Counter("graph_cache_misses_total")
	cacheBytes     = obs.Default.Gauge("graph_cache_bytes")
	cacheEvictions = obs.Default.Counter("graph_cache_evictions_total")

	cacheBuildNanos = obs.Default.Histogram("graph_cache_build_nanos")
	cacheWaitNanos  = obs.Default.Histogram("graph_cache_wait_nanos")
	cacheEvictNanos = obs.Default.Histogram("graph_cache_evict_nanos")
)

// Key identifies one cached graph artifact. Family is the builder name
// ("complete", "rr", ...); N the vertex count; A and B integer
// parameters (degree, second part size, attachment count — builder
// specific, zero when unused); F a float parameter as IEEE bits
// (rewiring probability); Seed the build seed for random families
// (zero for deterministic ones).
type Key struct {
	Family string
	N      int
	A, B   int
	F      uint64
	Seed   uint64
}

func (k Key) String() string {
	return fmt.Sprintf("%s(n=%d,a=%d,b=%d,f=%#x,seed=%#x)", k.Family, k.N, k.A, k.B, k.F, k.Seed)
}

type entry struct {
	key   Key
	g     *Graph
	bytes int64
	refs  int
	elem  *list.Element // position in the LRU list; nil while pinned or building

	ready chan struct{} // closed when the build completes
	err   error

	memoMu sync.Mutex
	memo   map[string]float64
}

// Cache is a ref-counted byte-bounded LRU of built graph artifacts.
// The hit/miss/eviction tallies are atomics updated outside the lock,
// so Stats readers and the per-Get bookkeeping never extend the
// critical section that guards the entry map.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = most recent; only unpinned entries
	bytes    int64      // Σ bytes of resident entries
	capacity int64

	hits, misses, evictions atomic.Int64
}

// NewCache returns a cache bounded to roughly capBytes of graph +
// ArcIndex storage (MemBytes estimates). capBytes <= 0 means unbounded.
func NewCache(capBytes int64) *Cache {
	return &Cache{
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		capacity: capBytes,
	}
}

// Handle is a pinned reference to a cached artifact. The graph is
// guaranteed to stay cached until Release; after Release the Handle's
// Graph pointer remains valid (Graphs are immutable) but the cache may
// forget it.
type Handle struct {
	c    *Cache
	e    *entry
	once sync.Once
}

// Graph returns the cached graph.
func (h *Handle) Graph() *Graph { return h.e.g }

// Release unpins the artifact. Idempotent.
func (h *Handle) Release() {
	h.once.Do(func() { h.c.release(h.e) })
}

// Float returns the memoized scalar under key, computing it with build
// on first request. Concurrent callers may race to build; the first
// stored value wins and all callers observe it — build must therefore
// be deterministic (spectral.Lambda with fixed Options is: its Lanczos
// recurrence is serial and seeded, so repeated calls agree bit for
// bit). This is
// how experiments share λ estimates without the graph package
// importing the spectral package.
func (h *Handle) Float(key string, build func(*Graph) float64) float64 {
	e := h.e
	e.memoMu.Lock()
	if v, ok := e.memo[key]; ok {
		e.memoMu.Unlock()
		cacheHits.Inc()
		return v
	}
	e.memoMu.Unlock()
	v := build(e.g)
	e.memoMu.Lock()
	if prev, ok := e.memo[key]; ok {
		v = prev
	} else {
		if e.memo == nil {
			e.memo = make(map[string]float64)
		}
		e.memo[key] = v
	}
	e.memoMu.Unlock()
	return v
}

// Get returns a pinned handle for the artifact under key, building it
// with build on a miss. Concurrent Gets for the same key share one
// build. The build runs outside the cache lock; its error is returned
// to every waiter and the entry is forgotten so a later Get retries.
func (c *Cache) Get(key Key, build func() (*Graph, error)) (*Handle, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		c.mu.Unlock()
		c.hits.Add(1)
		cacheHits.Inc()
		select {
		case <-e.ready:
			// Built already: the overwhelmingly common hit, kept free of
			// timestamp reads.
		default:
			waitStart := time.Now()
			<-e.ready
			cacheWaitNanos.Observe(time.Since(waitStart).Nanoseconds())
		}
		if e.err != nil {
			// Failed build: drop our pin and report.
			c.release(e)
			return nil, e.err
		}
		return &Handle{c: c, e: e}, nil
	}
	e := &entry{key: key, refs: 1, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	cacheMisses.Inc()

	buildStart := time.Now()
	g, err := build()
	cacheBuildNanos.Observe(time.Since(buildStart).Nanoseconds())
	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, key)
		close(e.ready)
		c.mu.Unlock()
		return nil, err
	}
	e.g = g
	e.bytes = g.MemBytes()
	c.bytes += e.bytes
	c.evictLocked()
	resident := c.bytes
	close(e.ready)
	c.mu.Unlock()
	cacheBytes.Set(resident)
	return &Handle{c: c, e: e}, nil
}

// release drops one pin; the last release moves the entry onto the
// LRU list where it becomes evictable.
func (c *Cache) release(e *entry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && c.entries[e.key] == e {
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	}
	resident := c.bytes
	c.mu.Unlock()
	cacheBytes.Set(resident)
}

// evictLocked drops least-recently-used unpinned entries until the
// resident total fits the bound. Pinned entries never appear on the
// LRU list, so a working set larger than the bound simply overshoots
// until handles are released.
func (c *Cache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	var passStart time.Time
	evicted := false
	for c.bytes > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		if !evicted {
			passStart = time.Now()
			evicted = true
		}
		e := back.Value.(*entry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions.Add(1)
		cacheEvictions.Inc()
	}
	if evicted {
		cacheEvictNanos.Observe(time.Since(passStart).Nanoseconds())
	}
}

// Bytes returns the resident size of all cached entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns cumulative hit/miss/eviction counts and resident size.
func (c *Cache) Stats() (hits, misses, evictions, bytes int64) {
	c.mu.Lock()
	b := c.bytes
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), b
}

// Len returns the number of resident entries (pinned + unpinned).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// sharedCacheBytes bounds the process-wide cache. The suite's largest
// artifact is the -full E2 endpoint K_3200 (≈ 12·n(n-1) ≈ 123 MB with
// ArcIndex), so 256 MiB holds it plus the rest of the working set
// while still forcing LRU turnover on pathological sweeps.
const sharedCacheBytes = 256 << 20

var (
	sharedCacheOnce sync.Once
	sharedCache     *Cache
)

// SharedCache returns the process-wide artifact cache used by the
// experiment suite.
func SharedCache() *Cache {
	sharedCacheOnce.Do(func() { sharedCache = NewCache(sharedCacheBytes) })
	return sharedCache
}
