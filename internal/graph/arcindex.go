package graph

import (
	"runtime"
	"slices"
	"sync/atomic"

	"div/internal/sched"
)

// MaxDegreeLCM caps the least common multiple of the distinct degrees
// used for exact integer reciprocal-degree weights (units L/d(v)). On a
// degree sequence whose LCM exceeds the cap, the vertex-process
// discordance engine (core.SparseState) refuses to build and callers
// fall back to naive stepping.
const MaxDegreeLCM = int64(1) << 30

// ArcIndex is the shared, immutable arc-level view of a Graph: the
// tail vertex and reverse arc of every directed arc. It is built once
// per Graph and shared by every trial and engine — the edge-process
// kernels draw arcs through the tails — so per-trial state never
// re-derives O(n+m) structure.
//
// All returned slices alias the index's storage and must be treated as
// read-only.
type ArcIndex struct {
	g     *Graph
	tails []int32 // tail vertex of each directed arc
	rev   []int32 // rev[a] = index of the opposite-direction arc
}

// ArcIndex returns the graph's shared arc index, building it on first
// use. The result is cached on the graph (all WithName copies share
// the cache), so concurrent callers receive the same index.
func (g *Graph) ArcIndex() *ArcIndex {
	cell := g.arc
	if cell == nil {
		// Zero-value Graph (no construction site): nothing to cache on.
		return buildArcIndex(g)
	}
	if ix := cell.Load(); ix != nil {
		return ix
	}
	ix := buildArcIndex(g)
	if cell.CompareAndSwap(nil, ix) {
		return ix
	}
	return cell.Load()
}

// arcIndexParallelMinArcs gates the parallel rev build: below it the
// serial cursor pass wins on setup cost alone.
const arcIndexParallelMinArcs = 1 << 21

// buildArcIndex computes tails and rev in O(n + m). The serial path
// exploits CSR sortedness: scanning arcs in order, the canonical arcs
// (v,w) with v < w arrive, for each fixed w, in ascending v — which is
// exactly the order of w's sorted neighbour prefix of heads below w —
// so one cursor per vertex pairs every arc with its reverse in a
// single pass. Large graphs on multicore hosts use the row-striped
// path instead (buildArcIndexRows), which computes the same pairing
// without the serial cursor chain.
func buildArcIndex(g *Graph) *ArcIndex {
	n := g.N()
	arcs := len(g.adj)
	ix := &ArcIndex{
		g:     g,
		tails: make([]int32, arcs),
		rev:   make([]int32, arcs),
	}
	if arcs >= arcIndexParallelMinArcs && runtime.GOMAXPROCS(0) > 1 {
		grain := n / 256
		if grain < 2048 {
			grain = 2048
		}
		sched.Distribute(sched.Shared(0), n, grain, sched.Tag{Exp: "graph_build"},
			func(lo, hi int) { buildArcIndexRows(g, ix, lo, hi) })
		return ix
	}
	for v := 0; v < n; v++ {
		for a := g.offsets[v]; a < g.offsets[v+1]; a++ {
			ix.tails[a] = int32(v)
		}
	}
	cursor := make([]int64, n)
	for v := 0; v < n; v++ {
		cursor[v] = g.offsets[v]
	}
	for a := 0; a < arcs; a++ {
		v, w := ix.tails[a], g.adj[a]
		if v < w {
			b := cursor[w]
			cursor[w]++
			ix.rev[a] = int32(b)
			ix.rev[b] = int32(a)
		}
	}
	return ix
}

// buildArcIndexRows fills tails and rev for rows [lo, hi) without
// cross-row state: for a canonical arc a = (v,w), v < w, the reverse
// arc's slot is v's position in w's sorted neighbour list, found by
// binary search. The owner (the v < w side) writes both rev cells, so
// every cell is written exactly once with a schedule-independent value
// — the striped build is race-free and bit-identical to the serial
// cursor pass (the cursor hands w's prefix slots to ascending v, which
// is precisely sorted order).
func buildArcIndexRows(g *Graph, ix *ArcIndex, lo, hi int) {
	adj, offsets := g.adj, g.offsets
	for v := lo; v < hi; v++ {
		rowLo, rowHi := offsets[v], offsets[v+1]
		for a := rowLo; a < rowHi; a++ {
			ix.tails[a] = int32(v)
			w := adj[a]
			if int32(v) >= w {
				continue
			}
			nb := adj[offsets[w]:offsets[w+1]]
			j, _ := slices.BinarySearch(nb, int32(v))
			b := offsets[w] + int64(j)
			ix.rev[a] = int32(b)
			ix.rev[b] = int32(a)
		}
	}
}

// Tails returns the tail vertex of each directed arc (read-only).
func (ix *ArcIndex) Tails() []int32 { return ix.tails }

// Rev returns the reverse-arc map: Rev()[a] is the arc with tail and
// head swapped (read-only).
func (ix *ArcIndex) Rev() []int32 { return ix.rev }

// FirstArc returns the index of vertex v's first outgoing arc; v's
// arcs are FirstArc(v)..FirstArc(v)+Degree(v)-1 in Neighbors order.
func (ix *ArcIndex) FirstArc(v int) int64 { return ix.g.offsets[v] }

// arcCell is the heap-allocated cache slot for a graph's ArcIndex. It
// lives behind a plain pointer on Graph so WithName's shallow copy
// shares (rather than copies) the atomic value.
type arcCell = atomic.Pointer[ArcIndex]
