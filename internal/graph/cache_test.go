package graph

import (
	"errors"
	"sync"
	"testing"
)

func TestCacheHitSharesInstance(t *testing.T) {
	c := NewCache(0)
	builds := 0
	build := func() (*Graph, error) { builds++; return Complete(10), nil }
	h1, err := c.Get(Key{Family: "complete", N: 10}, build)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Get(Key{Family: "complete", N: 10}, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}
	if h1.Graph() != h2.Graph() {
		t.Fatal("same key returned distinct *Graph instances")
	}
	// Sharing the Graph shares its ArcIndex too.
	if &h1.Graph().ArcIndex()[0] != &h2.Graph().ArcIndex()[0] {
		t.Fatal("shared graph has distinct arc indexes")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	h1.Release()
	h2.Release()
}

func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache(0)
	h1, _ := c.Get(Key{Family: "complete", N: 10}, func() (*Graph, error) { return Complete(10), nil })
	h2, _ := c.Get(Key{Family: "complete", N: 20}, func() (*Graph, error) { return Complete(20), nil })
	if h1.Graph() == h2.Graph() {
		t.Fatal("distinct keys shared a graph")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	h1.Release()
	h2.Release()
}

// TestCacheEviction: a tiny byte bound evicts released entries in LRU
// order but never pinned ones.
func TestCacheEviction(t *testing.T) {
	one := Complete(50).MemBytes()
	c := NewCache(2 * one)
	get := func(n int) *Handle {
		h, err := c.Get(Key{Family: "complete", N: n}, func() (*Graph, error) { return Complete(n), nil })
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hA, hB := get(50), get(49)
	hA.Release()
	hB.Release() // LRU order: A older than B
	// C displaces A (least recently used).
	get(48).Release()
	if _, _, ev, _ := stats4(c); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	builds := 0
	hA2, _ := c.Get(Key{Family: "complete", N: 50}, func() (*Graph, error) { builds++; return Complete(50), nil })
	if builds != 1 {
		t.Fatal("entry A should have been evicted and rebuilt")
	}
	// Pinned entries survive even when over budget.
	hD := get(47)
	if hA2.Graph().N() != 50 || hD.Graph().N() != 47 {
		t.Fatal("pinned graphs corrupted")
	}
	hA2.Release()
	hD.Release()
	if c.Bytes() > 2*one {
		t.Fatalf("resident %d bytes after releases, bound %d", c.Bytes(), 2*one)
	}
}

func stats4(c *Cache) (h, m, e, b int64) { return c.Stats() }

func TestCacheBuildErrorRetries(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	if _, err := c.Get(Key{Family: "x", N: 1}, func() (*Graph, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	h, err := c.Get(Key{Family: "x", N: 1}, func() (*Graph, error) { return Complete(3), nil })
	if err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	h.Release()
}

func TestCacheFloatMemo(t *testing.T) {
	c := NewCache(0)
	h, _ := c.Get(Key{Family: "complete", N: 8}, func() (*Graph, error) { return Complete(8), nil })
	defer h.Release()
	builds := 0
	f := func(g *Graph) float64 { builds++; return float64(g.N()) * 2 }
	if v := h.Float("lambda", f); v != 16 {
		t.Fatalf("Float = %v, want 16", v)
	}
	if v := h.Float("lambda", f); v != 16 || builds != 1 {
		t.Fatalf("memo miss: v=%v builds=%d", v, builds)
	}
	if v := h.Float("other", f); v != 16 || builds != 2 {
		t.Fatalf("distinct memo key: v=%v builds=%d", v, builds)
	}
	// A second handle to the same entry sees the memo.
	h2, _ := c.Get(Key{Family: "complete", N: 8}, func() (*Graph, error) { return Complete(8), nil })
	defer h2.Release()
	if v := h2.Float("lambda", f); v != 16 || builds != 2 {
		t.Fatalf("memo not shared across handles: v=%v builds=%d", v, builds)
	}
}

func TestCacheReleaseIdempotent(t *testing.T) {
	c := NewCache(0)
	h, _ := c.Get(Key{Family: "complete", N: 5}, func() (*Graph, error) { return Complete(5), nil })
	h.Release()
	h.Release() // must not double-unpin
	h2, _ := c.Get(Key{Family: "complete", N: 5}, func() (*Graph, error) { return Complete(5), nil })
	h2.Release()
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheConcurrent hammers Get/Release/Float across goroutines for
// the race detector; concurrent first Gets of one key share one build.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(4 * Complete(30).MemBytes())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 20 + (w+i)%6
				h, err := c.Get(Key{Family: "complete", N: n}, func() (*Graph, error) { return Complete(n), nil })
				if err != nil {
					t.Error(err)
					return
				}
				if h.Graph().N() != n {
					t.Errorf("got n=%d, want %d", h.Graph().N(), n)
				}
				h.Float("f", func(g *Graph) float64 { return float64(g.M()) })
				h.Release()
			}
		}(w)
	}
	wg.Wait()
}

func TestSharedCacheSingleton(t *testing.T) {
	if SharedCache() != SharedCache() {
		t.Fatal("SharedCache returned distinct caches")
	}
}

func TestMemBytesScales(t *testing.T) {
	small, big := Complete(10).MemBytes(), Complete(100).MemBytes()
	if small <= 0 || big <= small {
		t.Fatalf("MemBytes not monotone: %d vs %d", small, big)
	}
	// Complete(n): 8 bytes per arc (head + tail), 8 per vertex, and the
	// fixed header.
	if want := int64(8*100*99 + 8*100 + 64); big != want {
		t.Fatalf("MemBytes(K_100) = %d, want %d", big, want)
	}
}
