package core

import (
	"fmt"
	"math/rand/v2"
)

// Process selects how the updating vertex v and observed neighbour w
// are chosen at each asynchronous step (paper §1, "Definition of
// process").
type Process int

const (
	// VertexProcess chooses v uniformly from V and w uniformly from
	// N(v): P[v chooses w] = 1/(n·d(v)). Its conserved weight is the
	// degree-biased Z(t).
	VertexProcess Process = iota
	// EdgeProcess chooses a uniform edge and a uniform endpoint as v:
	// P[v chooses w] = 1/2m. Its conserved weight is the plain sum
	// S(t).
	EdgeProcess
)

// String implements fmt.Stringer.
func (p Process) String() string {
	switch p {
	case VertexProcess:
		return "vertex"
	case EdgeProcess:
		return "edge"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// Scheduler draws ordered pairs (v, w) for a fixed graph. Construct one
// per run with NewScheduler; it precomputes whatever the process needs
// for O(1) draws.
type Scheduler struct {
	process  Process
	n        int
	arcs     int
	arcTails []int32
	heads    []int32
	complete bool // K_n: draw neighbours arithmetically, no CSR traffic
	s        *State
}

// NewScheduler prepares a pair sampler for the given process over the
// state's graph. The graph must have minimum degree ≥ 1 (every vertex
// needs a neighbour to observe). The arc arrays are the graph's shared
// storage (ArcIndex), so construction allocates nothing beyond the
// Scheduler itself.
func NewScheduler(s *State, p Process) (*Scheduler, error) {
	if p != VertexProcess && p != EdgeProcess {
		return nil, fmt.Errorf("core: unknown process %v", p)
	}
	g := s.Graph()
	if g == nil {
		return nil, fmt.Errorf("core: scheduler requires a materialized CSR graph (implicit topology %q)", s.Topology().Name())
	}
	if g.MinDegree() == 0 {
		return nil, fmt.Errorf("core: %v process requires min degree >= 1", p)
	}
	sc := &Scheduler{process: p, n: g.N(), complete: g.IsComplete(), s: s}
	if p == EdgeProcess && !sc.complete {
		sc.arcs = int(g.DegreeSum())
		sc.arcTails = g.ArcIndex()
		sc.heads = g.Arcs()
	}
	return sc, nil
}

// Pair draws one scheduled pair (v, w) according to the process. On
// complete graphs the neighbour is computed arithmetically — K_n's
// sorted neighbour list of v is 0..n-1 with v removed, so the i-th
// neighbour is i + (i ≥ v) — which consumes exactly the same random
// variates as the CSR path and returns exactly the same pair, but
// touches no adjacency memory (on large K_n the CSR lookup is a cache
// miss per draw and dominates the step cost).
func (sc *Scheduler) Pair(r *rand.Rand) (v, w int) {
	switch sc.process {
	case VertexProcess:
		v = r.IntN(sc.n)
		if sc.complete {
			w = r.IntN(sc.n - 1)
			if w >= v {
				w++
			}
			return v, w
		}
		g := sc.s.Graph()
		w = g.Neighbor(v, r.IntN(g.Degree(v)))
		return v, w
	case EdgeProcess:
		if sc.complete {
			arc := r.IntN(sc.n * (sc.n - 1))
			d := sc.n - 1
			v = arc / d
			w = arc % d
			if w >= v {
				w++
			}
			return v, w
		}
		arc := r.IntN(sc.arcs)
		return int(sc.arcTails[arc]), int(sc.heads[arc])
	default:
		panic(fmt.Sprintf("core: unknown process %v", sc.process))
	}
}

// Weight returns the process's conserved raw weight at the current
// state: S_raw = Σ X_v for the edge process, Σ d(v)X_v for the vertex
// process (2m·Z/n in the paper's normalization).
func (sc *Scheduler) Weight() int64 {
	if sc.process == EdgeProcess {
		return sc.s.Sum()
	}
	return sc.s.DegSum()
}

// WeightAverage returns the process-appropriate average opinion: the
// simple average S/n for the edge process, the degree-weighted average
// Σ π_v X_v for the vertex process. Theorem 2 predicts the consensus
// value is the floor or ceiling of this quantity at t=0.
func (sc *Scheduler) WeightAverage() float64 {
	if sc.process == EdgeProcess {
		return sc.s.Average()
	}
	return sc.s.WeightedAverage()
}
