// Package graph provides the graph substrate for the voting processes:
// a compact immutable adjacency representation (CSR), deterministic and
// random graph families used throughout the paper (complete graphs,
// paths, cycles, random regular graphs, Erdős–Rényi graphs, and more),
// basic graph algorithms (connectivity, BFS, degree statistics), and a
// plain-text edge-list serialization.
//
// All processes in internal/core treat a *Graph as read-only, so a
// single Graph may be shared by many concurrent trials.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph in compressed sparse row form.
// Vertices are 0..N()-1. The zero value is the empty graph.
//
// A Graph is immutable after construction and safe for concurrent use.
type Graph struct {
	offsets []int64 // len n+1; neighbours of v are adj[offsets[v]:offsets[v+1]]
	adj     []int32 // concatenated sorted neighbour lists
	minDeg  int     // minimum degree, computed once by BuildCSR
	name    string  // human-readable family label, e.g. "complete(n=100)"

	// arc caches the lazily-built shared ArcIndex. It is a pointer to a
	// heap cell (not an inline atomic) so WithName's shallow copy shares
	// the cache instead of copying a lock-bearing value.
	arc *arcCell
}

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// NewFromEdges builds a Graph with n vertices from an edge list.
// Self-loops and duplicate edges are rejected: the voting processes are
// defined on simple graphs. It is the serial configuration of the
// direct-to-CSR assembler (BuildCSR over an EdgeList source).
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	return BuildCSR(n, EdgeList(n, edges), BuildOpts{})
}

// MustFromEdges is NewFromEdges that panics on error, for tests and
// statically known-good constructions.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Neighbor returns the i-th neighbour of v (0-indexed). It is the O(1)
// primitive behind "choose a random neighbour of v".
func (g *Graph) Neighbor(v, i int) int {
	return int(g.adj[g.offsets[v]+int64(i)])
}

// Offsets returns the CSR offset array: vertex v's neighbours occupy
// Arcs()[Offsets()[v]:Offsets()[v+1]]. The returned slice aliases the
// graph's internal storage and must not be modified. Hot kernels hoist
// it (together with Arcs) into locals so per-step degree and neighbour
// lookups compile to two indexed loads with no method calls.
func (g *Graph) Offsets() []int64 { return g.offsets }

// HasEdge reports whether {u,v} is an edge, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
		return false
	}
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Edges returns all undirected edges with U < V, in vertex order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				edges = append(edges, Edge{U: v, V: int(w)})
			}
		}
	}
	return edges
}

// EdgeAt returns the i-th entry of the directed-arc array as an
// undirected edge endpoint pair (tail, head). Arcs 0..2M-1 enumerate
// every (v,w) with {v,w} ∈ E in CSR order; a uniform arc index is a
// uniform directed edge, which is exactly the edge process's
// "random edge, random endpoint" draw.
func (g *Graph) EdgeAt(arc int) (tail, head int) {
	head = int(g.adj[arc])
	// Find the tail by binary search over offsets.
	tail = sort.Search(len(g.offsets)-1, func(v int) bool { return g.offsets[v+1] > int64(arc) })
	return tail, head
}

// Arcs returns the flat 2M-length adjacency array: entry a is the head
// vertex of directed arc a (arc indices follow Neighbors order,
// vertex-major). The slice is the graph's own storage — callers must
// not modify it.
func (g *Graph) Arcs() []int32 { return g.adj }

// ArcTails returns the 2M-length array mapping each directed-arc index
// to its tail vertex, for O(1) EdgeAt lookups in hot loops. The slice
// is the shared ArcIndex's storage — callers must not modify it.
func (g *Graph) ArcTails() []int32 {
	return g.ArcIndex().Tails()
}

// Name returns the human-readable family label, or "" if unset.
func (g *Graph) Name() string { return g.name }

// WithName returns g with its name label set. The adjacency storage is
// shared, not copied.
func (g *Graph) WithName(name string) *Graph {
	cp := *g
	cp.name = name
	return &cp
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	if g.name != "" {
		return fmt.Sprintf("%s{n=%d m=%d}", g.name, g.N(), g.M())
	}
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// DegreeSum returns the total degree 2m.
func (g *Graph) DegreeSum() int64 { return int64(len(g.adj)) }

// MinDegree returns the minimum degree, or 0 for the empty graph. It is
// O(1): BuildCSR, the single construction funnel, computes it once.
func (g *Graph) MinDegree() int { return g.minDeg }

// minDegree scans a CSR offset array for its smallest degree (0 when
// it holds no vertex).
func minDegree(offsets []int64) int {
	n := len(offsets) - 1
	if n < 1 {
		return 0
	}
	min := offsets[1] - offsets[0]
	for v := 1; v < n; v++ {
		if d := offsets[v+1] - offsets[v]; d < min {
			min = d
		}
	}
	return int(min)
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// IsRegular reports whether all vertices share the same degree.
func (g *Graph) IsRegular() bool {
	return g.N() == 0 || g.MinDegree() == g.MaxDegree()
}

// IsComplete reports whether g is the complete graph K_n. A simple
// graph is complete iff it has n(n-1)/2 edges, so no adjacency scan is
// needed; schedulers use this to draw neighbours arithmetically
// instead of through the CSR arrays.
func (g *Graph) IsComplete() bool {
	n := int64(g.N())
	return int64(len(g.adj)) == n*(n-1)
}

// MemBytes estimates the resident size of the graph together with its
// fully-built ArcIndex: CSR offsets (8 bytes/vertex) and adjacency
// (4 bytes/arc), plus the index's tails and rev arrays (4 bytes/arc
// each). The artifact cache uses this as the charge for byte-bounded
// eviction, so it deliberately prices the index even before it is
// built — the cache's whole point is that it will be.
func (g *Graph) MemBytes() int64 {
	n := int64(g.N())
	arcs := int64(len(g.adj))
	return 12*arcs + 8*n + 64
}

// Stationary returns the stationary distribution π_v = d(v)/2m of the
// simple random walk on g. It panics if the graph has no edges.
func (g *Graph) Stationary() []float64 {
	if g.M() == 0 {
		panic("graph: stationary distribution undefined without edges")
	}
	pi := make([]float64, g.N())
	total := float64(g.DegreeSum())
	for v := range pi {
		pi[v] = float64(g.Degree(v)) / total
	}
	return pi
}

// Validate performs internal-consistency checks (sortedness, symmetry,
// simplicity) and returns the first violation found. It exists for
// tests and for graphs decoded from external input.
func (g *Graph) Validate() error {
	n := g.N()
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: corrupt offsets")
	}
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: neighbour %d of %d out of range", w, v)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && nb[i-1] >= w {
				return fmt.Errorf("graph: neighbours of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
		}
	}
	return nil
}
