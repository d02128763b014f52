package spectral

import (
	"sync"

	"div/internal/graph"
)

// topoLambdaMemo caches λ per implicit-topology name. Implicit families
// never enter the byte-bounded graph artifact cache — there is no
// adjacency to cache or evict — so the one derived scalar experiments
// ask for is memoized here instead: for a circulant the closed form is
// an O(n·L) frequency scan, worth computing exactly once per family.
var topoLambdaMemo sync.Map // graph.Topology.Name() -> float64

// LambdaTopology returns λ = max(|λ₂|, |λ_n|) of the walk matrix for
// implicit topologies with a closed form (complete, cycle, path, torus,
// hypercube, circulant), memoized per topology name. ok is false for
// topologies without one: materialized *Graphs (use LambdaExact or
// Lambda) and HashedRegular (only the w.h.p. bound
// LambdaRandomRegularBound applies).
func LambdaTopology(t graph.Topology) (lambda float64, ok bool) {
	key := t.Name()
	if v, hit := topoLambdaMemo.Load(key); hit {
		return v.(float64), true
	}
	switch tt := t.(type) {
	case *graph.ImplicitComplete:
		lambda = LambdaComplete(tt.N())
	case *graph.ImplicitCycle:
		lambda = LambdaCycle(tt.N())
	case *graph.ImplicitPath:
		lambda = LambdaPath(tt.N())
	case *graph.ImplicitHypercube:
		lambda = LambdaHypercube(tt.Dim())
	case *graph.ImplicitCirculant:
		lambda = LambdaCirculant(tt.N(), tt.Strides())
	case *graph.ImplicitTorus:
		lambda = LambdaTorus(tt.Rows(), tt.Cols())
	default:
		return 0, false
	}
	topoLambdaMemo.Store(key, lambda)
	return lambda, true
}
