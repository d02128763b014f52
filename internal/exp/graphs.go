package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"div/internal/graph"
	"div/internal/spectral"
)

// Graphs is an experiment-scoped view of the process-wide graph
// artifact cache (graph.SharedCache): every graph it hands out is
// pinned — guaranteed resident, with its ArcIndex and memoized λ —
// until Release, which experiments defer so artifacts outlive exactly
// one run and become evictable afterwards. Two experiments asking for
// the same (family, size, params, seed) share one *Graph instance, so
// the O(n+m) CSR arrays, the ArcIndex, and any spectral estimates are
// built once per suite instead of once per grid point.
//
// Random families take an explicit build seed (derive it from
// Params.Seed) rather than a live *rand.Rand: the seed is part of the
// cache key, which is what makes "the same random graph" a shareable,
// reproducible artifact.
type Graphs struct {
	mu  sync.Mutex
	hs  []*graph.Handle
	byG map[*graph.Graph]*graph.Handle
}

func newGraphs() *Graphs {
	return &Graphs{byG: make(map[*graph.Graph]*graph.Handle)}
}

// Release unpins every graph handed out. Idempotent per handle.
func (gs *Graphs) Release() {
	gs.mu.Lock()
	hs := gs.hs
	gs.hs = nil
	gs.mu.Unlock()
	for _, h := range hs {
		h.Release()
	}
}

// get resolves key through the shared cache and pins the result for
// the lifetime of this Graphs.
func (gs *Graphs) get(key graph.Key, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	h, err := graph.SharedCache().Get(key, build)
	if err != nil {
		return nil, err
	}
	gs.mu.Lock()
	gs.hs = append(gs.hs, h)
	if _, ok := gs.byG[h.Graph()]; !ok {
		gs.byG[h.Graph()] = h
	}
	gs.mu.Unlock()
	return h.Graph(), nil
}

// mustGet is get for deterministic builders that cannot fail.
func (gs *Graphs) mustGet(key graph.Key, build func() *graph.Graph) *graph.Graph {
	g, err := gs.get(key, func() (*graph.Graph, error) { return build(), nil })
	if err != nil {
		panic(err) // unreachable: build never errors
	}
	return g
}

// Complete returns the cached K_n.
func (gs *Graphs) Complete(n int) *graph.Graph {
	return gs.mustGet(graph.Key{Family: "complete", N: n}, func() *graph.Graph { return graph.Complete(n) })
}

// Star returns the cached star S_n.
func (gs *Graphs) Star(n int) *graph.Graph {
	return gs.mustGet(graph.Key{Family: "star", N: n}, func() *graph.Graph { return graph.Star(n) })
}

// Path returns the cached path P_n.
func (gs *Graphs) Path(n int) *graph.Graph {
	return gs.mustGet(graph.Key{Family: "path", N: n}, func() *graph.Graph { return graph.Path(n) })
}

// Cycle returns the cached cycle C_n.
func (gs *Graphs) Cycle(n int) *graph.Graph {
	return gs.mustGet(graph.Key{Family: "cycle", N: n}, func() *graph.Graph { return graph.Cycle(n) })
}

// buildOpts is the assembler configuration for cache builds: stripes
// run on the GOMAXPROCS-wide shared pool (the ready-channel dedup pins
// a cold build to one caller, but the build itself saturates the
// machine). Worker count never affects the built graph, so the cache
// key needs no build-parallelism component.
func buildOpts() graph.BuildOpts {
	return graph.BuildOpts{Workers: runtime.GOMAXPROCS(0)}
}

// RandomRegular returns the cached uniform random d-regular graph
// built from seed.
func (gs *Graphs) RandomRegular(n, d int, seed uint64) (*graph.Graph, error) {
	return gs.get(graph.Key{Family: "rr", N: n, A: d, Seed: seed}, func() (*graph.Graph, error) {
		return graph.RandomRegularSeeded(n, d, seed, buildOpts())
	})
}

// ConnectedGnp returns the cached connected Erdős–Rényi G(n,p) built
// from seed.
func (gs *Graphs) ConnectedGnp(n int, p float64, seed uint64) (*graph.Graph, error) {
	return gs.get(graph.Key{Family: "gnp", N: n, F: math.Float64bits(p), Seed: seed}, func() (*graph.Graph, error) {
		return graph.ConnectedGnpSeeded(n, p, seed, 200, buildOpts())
	})
}

// BarabasiAlbert returns the cached preferential-attachment graph
// (m edges per arrival) built from seed.
func (gs *Graphs) BarabasiAlbert(n, m int, seed uint64) (*graph.Graph, error) {
	return gs.get(graph.Key{Family: "ba", N: n, A: m, Seed: seed}, func() (*graph.Graph, error) {
		return graph.BarabasiAlbertSeeded(n, m, seed, buildOpts())
	})
}

// WattsStrogatz returns the cached small-world graph (degree d,
// rewiring probability beta) built from seed.
func (gs *Graphs) WattsStrogatz(n, d int, beta float64, seed uint64) (*graph.Graph, error) {
	return gs.get(graph.Key{Family: "ws", N: n, A: d, F: math.Float64bits(beta), Seed: seed}, func() (*graph.Graph, error) {
		return graph.WattsStrogatzSeeded(n, d, beta, seed, buildOpts())
	})
}

// Torus returns the cached w×h torus.
func (gs *Graphs) Torus(w, h int) *graph.Graph {
	return gs.mustGet(graph.Key{Family: "torus", N: w * h, A: w, B: h}, func() *graph.Graph { return graph.Torus(w, h) })
}

// Lambda returns spectral.Lambda(g, o), memoized on the cache entry
// when g came from this Graphs (Lanczos with fixed Options returns
// identical bits on every call, so the memo is exact, not
// approximate). Graphs not handed out by the cache fall through to a
// direct computation. Any error, ErrNotConverged included, is returned
// as an error.
func (gs *Graphs) Lambda(g *graph.Graph, o spectral.Options) (float64, error) {
	gs.mu.Lock()
	h, ok := gs.byG[g]
	gs.mu.Unlock()
	if !ok {
		return spectral.Lambda(g, o)
	}
	var buildErr error
	v := h.Float(lambdaMemoKey(o), func(g *graph.Graph) float64 {
		l, err := spectral.Lambda(g, o)
		if err != nil {
			buildErr = err
			return math.NaN()
		}
		return l
	})
	if buildErr != nil {
		return 0, buildErr
	}
	if math.IsNaN(v) {
		// A concurrent builder hit the error and memoized NaN; recompute
		// directly to surface it.
		return spectral.Lambda(g, o)
	}
	return v, nil
}

func lambdaMemoKey(o spectral.Options) string {
	return fmt.Sprintf("lambda:%d:%g:%d", o.MaxIters, o.Tol, o.Seed)
}
