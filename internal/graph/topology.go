package graph

import (
	"fmt"
	"math/bits"
	"sort"
)

// Topology is the read-only graph view the stepping kernels actually
// consume: vertex count, per-vertex degree, and indexed neighbour
// lookup. A materialized *Graph satisfies it (CSR-backed), and the
// implicit families below satisfy it with O(1) state — no adjacency is
// ever built — which is what makes n = 10⁶–10⁷ runs affordable: the
// per-vertex structures drop from O(n + m) CSR plus arc index to a
// handful of integers.
//
// Contract: Neighbor(v, i) for i in [0, Degree(v)) must enumerate v's
// neighbours in ascending vertex order, matching the CSR twin's sorted
// neighbour lists entry for entry, so that a kernel drawing a uniform
// neighbour *index* sees the same vertex on the implicit backend and on
// Materialize(t) — the byte-identity contract the blocked kernels pin.
// (HashedRegular is the one exception: its enumeration is ordered by
// matching, not by vertex; see its doc comment.)
//
// Implementations must be immutable and safe for concurrent use.
type Topology interface {
	N() int
	Degree(v int) int
	Neighbor(v, i int) int
	DegreeSum() int64
	MinDegree() int
	Name() string
}

// ArcTopology is the optional arc-unit hook: a Topology that can map a
// directed-arc index a in [0, DegreeSum()) to its (tail, head) pair in
// CSR arc order (vertex-major, neighbours ascending). The blocked
// edge-process kernels need it on irregular implicit topologies only
// (ImplicitPath among the built-in families): on a regular one they
// find the tail as a/d themselves, and a *Graph is read through its
// ArcIndex.
type ArcTopology interface {
	Topology
	Arc(a int64) (v, w int)
}

// Materialize builds the CSR twin of a topology by enumerating every
// neighbour list. A *Graph materializes to itself. Topologies that are
// multigraphs (HashedRegular can repeat an edge across matchings)
// return the duplicate-edge error from NewFromEdges.
func Materialize(t Topology) (*Graph, error) {
	if g, ok := t.(*Graph); ok {
		return g, nil
	}
	n := t.N()
	edges := make([]Edge, 0, t.DegreeSum()/2)
	for v := 0; v < n; v++ {
		d := t.Degree(v)
		for i := 0; i < d; i++ {
			if w := t.Neighbor(v, i); v < w {
				edges = append(edges, Edge{U: v, V: w})
			}
		}
	}
	g, err := NewFromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("graph: materialize %s: %w", t.Name(), err)
	}
	return g.WithName(t.Name()), nil
}

// MustMaterialize is Materialize that panics on error, for tests and
// statically known-good families.
func MustMaterialize(t Topology) *Graph {
	g, err := Materialize(t)
	if err != nil {
		panic(err)
	}
	return g
}

// CSRMemEstimate predicts the resident bytes a topology would cost if
// materialized: the CSR adjacency (offsets at 8 bytes/vertex, heads at
// 4 bytes/arc) and the shared ArcIndex (tails at 4 bytes/arc) — the
// same pricing Graph.MemBytes charges the artifact cache.
// An implicit backend costs none of it; cmd/graphinfo prints predicted
// vs actual so the saving is visible before a run.
func CSRMemEstimate(n int, degreeSum int64) (adjBytes, arcIndexBytes int64) {
	adjBytes = 8*int64(n+1) + 4*degreeSum
	arcIndexBytes = 4 * degreeSum
	return adjBytes, arcIndexBytes
}

// ---------------------------------------------------------------------
// Implicit families. Each holds O(1) state (plus the parameter list)
// and is constructed by a New* function that validates the parameters
// the corresponding materializing builder would panic on.
// ---------------------------------------------------------------------

// ImplicitComplete is K_n without the n(n-1) adjacency entries: the
// sorted neighbour list of v is 0..n-1 with v removed, so the i-th
// neighbour is i + (i ≥ v) — the same arithmetic the complete-graph
// schedulers already use.
type ImplicitComplete struct{ n int }

// NewImplicitComplete returns the implicit K_n. n must be ≥ 2.
func NewImplicitComplete(n int) (*ImplicitComplete, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: implicit complete requires n >= 2, got %d", n)
	}
	return &ImplicitComplete{n: n}, nil
}

func (t *ImplicitComplete) N() int         { return t.n }
func (t *ImplicitComplete) Degree(int) int { return t.n - 1 }
func (t *ImplicitComplete) Neighbor(v, i int) int {
	if i >= v {
		return i + 1
	}
	return i
}
func (t *ImplicitComplete) DegreeSum() int64 { return int64(t.n) * int64(t.n-1) }
func (t *ImplicitComplete) MinDegree() int   { return t.n - 1 }
func (t *ImplicitComplete) Name() string     { return fmt.Sprintf("complete(n=%d)", t.n) }

// ImplicitCycle is C_n: each vertex's sorted neighbours are
// {v-1 mod n, v+1 mod n}.
type ImplicitCycle struct{ n int }

// NewImplicitCycle returns the implicit n-cycle. n must be ≥ 3.
func NewImplicitCycle(n int) (*ImplicitCycle, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: implicit cycle requires n >= 3, got %d", n)
	}
	return &ImplicitCycle{n: n}, nil
}

func (t *ImplicitCycle) N() int         { return t.n }
func (t *ImplicitCycle) Degree(int) int { return 2 }
func (t *ImplicitCycle) Neighbor(v, i int) int {
	a := v - 1
	if a < 0 {
		a = t.n - 1
	}
	b := v + 1
	if b == t.n {
		b = 0
	}
	if a > b {
		a, b = b, a
	}
	if i == 0 {
		return a
	}
	return b
}
func (t *ImplicitCycle) DegreeSum() int64 { return 2 * int64(t.n) }
func (t *ImplicitCycle) MinDegree() int   { return 2 }
func (t *ImplicitCycle) Name() string     { return fmt.Sprintf("cycle(n=%d)", t.n) }

// ImplicitPath is P_n: endpoint degrees 1, interior degrees 2, sorted
// neighbours {v-1, v+1}.
type ImplicitPath struct{ n int }

// NewImplicitPath returns the implicit n-path. n must be ≥ 2.
func NewImplicitPath(n int) (*ImplicitPath, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: implicit path requires n >= 2, got %d", n)
	}
	return &ImplicitPath{n: n}, nil
}

func (t *ImplicitPath) N() int { return t.n }
func (t *ImplicitPath) Degree(v int) int {
	if v == 0 || v == t.n-1 {
		return 1
	}
	return 2
}
func (t *ImplicitPath) Neighbor(v, i int) int {
	if v == 0 {
		return 1
	}
	if v == t.n-1 {
		return t.n - 2
	}
	return v - 1 + 2*i
}
func (t *ImplicitPath) DegreeSum() int64 { return 2 * int64(t.n-1) }
func (t *ImplicitPath) MinDegree() int   { return 1 }
func (t *ImplicitPath) Name() string     { return fmt.Sprintf("path(n=%d)", t.n) }

// Arc exploits P_n's CSR layout directly: vertex 0 owns arc 0, vertex
// v ≥ 1 owns arcs 2v-1 .. 2v-1+Degree(v)-1.
func (t *ImplicitPath) Arc(a int64) (v, w int) {
	if a == 0 {
		return 0, 1
	}
	v = int((a + 1) / 2)
	i := int(a - int64(2*v-1))
	return v, t.Neighbor(v, i)
}

// ImplicitTorus is the rows×cols torus grid (wrap-around in both
// dimensions), 4-regular for rows, cols ≥ 3. Vertex (r, c) is
// r·cols + c, matching the materializing builder.
type ImplicitTorus struct {
	rows, cols int
}

// NewImplicitTorus returns the implicit torus. rows and cols must be ≥ 3.
func NewImplicitTorus(rows, cols int) (*ImplicitTorus, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: implicit torus requires rows,cols >= 3, got %dx%d", rows, cols)
	}
	return &ImplicitTorus{rows: rows, cols: cols}, nil
}

func (t *ImplicitTorus) N() int         { return t.rows * t.cols }
func (t *ImplicitTorus) Degree(int) int { return 4 }
func (t *ImplicitTorus) Neighbor(v, i int) int {
	r, c := v/t.cols, v%t.cols
	up := r - 1
	if up < 0 {
		up = t.rows - 1
	}
	down := r + 1
	if down == t.rows {
		down = 0
	}
	left := c - 1
	if left < 0 {
		left = t.cols - 1
	}
	right := c + 1
	if right == t.cols {
		right = 0
	}
	// Sort the four neighbours with a fixed network; rows,cols ≥ 3
	// guarantees they are distinct.
	a := up*t.cols + c
	b := r*t.cols + left
	x := r*t.cols + right
	y := down*t.cols + c
	if a > b {
		a, b = b, a
	}
	if x > y {
		x, y = y, x
	}
	if a > x {
		a, x = x, a
	}
	if b > y {
		b, y = y, b
	}
	if b > x {
		b, x = x, b
	}
	switch i {
	case 0:
		return a
	case 1:
		return b
	case 2:
		return x
	default:
		return y
	}
}
func (t *ImplicitTorus) DegreeSum() int64 { return 4 * int64(t.rows) * int64(t.cols) }
func (t *ImplicitTorus) MinDegree() int   { return 4 }
func (t *ImplicitTorus) Name() string     { return fmt.Sprintf("torus(%dx%d)", t.rows, t.cols) }

// ImplicitHypercube is the d-dimensional hypercube Q_d on n = 2^d
// vertices: v's neighbours are v with one bit flipped. In ascending
// order those are the set bits of v flipped from highest to lowest
// (each flip subtracts a power of two, larger powers first), then the
// unset bits flipped from lowest to highest.
type ImplicitHypercube struct{ d int }

// NewImplicitHypercube returns the implicit Q_d. d must be in [1, 25]
// (the materializing builder's range).
func NewImplicitHypercube(d int) (*ImplicitHypercube, error) {
	if d < 1 || d > 25 {
		return nil, fmt.Errorf("graph: implicit hypercube dimension %d out of range [1,25]", d)
	}
	return &ImplicitHypercube{d: d}, nil
}

func (t *ImplicitHypercube) N() int         { return 1 << t.d }
func (t *ImplicitHypercube) Degree(int) int { return t.d }
func (t *ImplicitHypercube) Neighbor(v, i int) int {
	pop := bits.OnesCount32(uint32(v))
	if i < pop {
		// (i+1)-th set bit from the top.
		x := uint32(v)
		for ; i > 0; i-- {
			x &^= 1 << (31 - bits.LeadingZeros32(x))
		}
		return v ^ 1<<(31-bits.LeadingZeros32(x))
	}
	// (i-pop+1)-th unset bit from the bottom, within d bits.
	x := ^uint32(v) & (1<<t.d - 1)
	for i -= pop; i > 0; i-- {
		x &= x - 1
	}
	return v ^ 1<<bits.TrailingZeros32(x)
}
func (t *ImplicitHypercube) DegreeSum() int64 { return int64(t.d) << t.d }
func (t *ImplicitHypercube) MinDegree() int   { return t.d }
func (t *ImplicitHypercube) Name() string     { return fmt.Sprintf("hypercube(d=%d)", t.d) }

// ImplicitCirculant is the circulant graph C_n(s_1..s_L): v is adjacent
// to v ± s_j mod n. Strides must be distinct and in [1, ⌈n/2⌉-1] — the
// antipodal stride n/2 is rejected so the family stays 2L-regular. For
// interior vertices (s_max ≤ v < n-s_max, the overwhelming majority at
// large n) the sorted neighbour list is v + off[i] for the presorted
// offset table [-s_L..-s_1, s_1..s_L]; wrap-around vertices take a
// small sort.
type ImplicitCirculant struct {
	n       int
	strides []int // ascending
	offs    []int // sorted relative offsets, len 2L
	sMax    int
}

// NewImplicitCirculant returns the implicit circulant. It validates n
// ≥ 3 and the stride constraints above.
func NewImplicitCirculant(n int, strides []int) (*ImplicitCirculant, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: implicit circulant requires n >= 3, got %d", n)
	}
	if len(strides) == 0 {
		return nil, fmt.Errorf("graph: implicit circulant requires at least one stride")
	}
	ss := append([]int(nil), strides...)
	sort.Ints(ss)
	for i, s := range ss {
		if s < 1 || 2*s >= n {
			return nil, fmt.Errorf("graph: implicit circulant stride %d out of range [1,%d] (antipodal strides are not supported implicitly)", s, (n-1)/2)
		}
		if i > 0 && ss[i-1] == s {
			return nil, fmt.Errorf("graph: implicit circulant duplicate stride %d", s)
		}
	}
	l := len(ss)
	offs := make([]int, 2*l)
	for i, s := range ss {
		offs[l-1-i] = -s
		offs[l+i] = s
	}
	return &ImplicitCirculant{n: n, strides: ss, offs: offs, sMax: ss[l-1]}, nil
}

func (t *ImplicitCirculant) N() int         { return t.n }
func (t *ImplicitCirculant) Degree(int) int { return len(t.offs) }
func (t *ImplicitCirculant) Neighbor(v, i int) int {
	if v >= t.sMax && v < t.n-t.sMax {
		return v + t.offs[i]
	}
	// Wrap-around vertex (at most 2·s_max of them): materialize and sort
	// the 2L neighbours on the spot.
	nb := make([]int, len(t.offs))
	for j, o := range t.offs {
		w := v + o
		if w < 0 {
			w += t.n
		} else if w >= t.n {
			w -= t.n
		}
		nb[j] = w
	}
	sort.Ints(nb)
	return nb[i]
}
func (t *ImplicitCirculant) DegreeSum() int64 { return int64(len(t.offs)) * int64(t.n) }
func (t *ImplicitCirculant) MinDegree() int   { return len(t.offs) }
func (t *ImplicitCirculant) Name() string {
	return fmt.Sprintf("circulant(n=%d,strides=%v)", t.n, t.strides)
}

// Strides returns the ascending stride list (read-only).
func (t *ImplicitCirculant) Strides() []int { return t.strides }

// HashedRegular is a d-regular multigraph on n vertices built from d
// pseudorandom perfect matchings, evaluated on the fly: matching m is
// the fixed-point-free involution v ↦ σ_m(σ_m⁻¹(v) XOR 1), where σ_m
// is a keyed format-preserving permutation of [0, n) (a 4-round Feistel
// network cycle-walked down from the enclosing power of two). State is
// O(1); no matching is ever stored.
//
// Unlike the deterministic families, Neighbor(v, i) enumerates by
// matching index i, NOT in ascending vertex order, and two matchings
// may produce the same edge — so HashedRegular has no byte-identical
// CSR twin and Materialize can fail with a duplicate-edge error. The
// topology is still symmetric (w ∈ N(v) ⇔ v ∈ N(w), with matching
// multiplicity), which is all the voting processes need: a uniform
// (v, i) draw is a uniform directed arc of the multigraph.
type HashedRegular struct {
	n, d  int
	seed  uint64
	hbits uint // Feistel half-width: domain is 2^(2·hbits) ≥ n
	mask  uint32
}

// NewHashedRegular returns the implicit hashed d-regular multigraph.
// n must be even and ≥ 4, d in [1, n-1].
func NewHashedRegular(n, d int, seed uint64) (*HashedRegular, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("graph: hashed regular requires even n >= 4, got %d", n)
	}
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: hashed regular degree %d out of range [1,%d]", d, n-1)
	}
	h := uint((bits.Len(uint(n-1)) + 1) / 2)
	if h == 0 {
		h = 1
	}
	return &HashedRegular{n: n, d: d, seed: seed, hbits: h, mask: 1<<h - 1}, nil
}

// feistelRound is the keyed round function: a SplitMix64-style mixer
// over (half, round, matching, seed), truncated to the half-width.
func (t *HashedRegular) feistelRound(x uint32, round, m int) uint32 {
	z := uint64(x) + t.seed + uint64(m)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z) & t.mask
}

// perm applies matching m's permutation to x < 2^(2·hbits).
func (t *HashedRegular) perm(x uint32, m int) uint32 {
	l, r := x>>t.hbits, x&t.mask
	for round := 0; round < 4; round++ {
		l, r = r, l^t.feistelRound(r, round, m)
	}
	return l<<t.hbits | r
}

// permInv inverts perm.
func (t *HashedRegular) permInv(x uint32, m int) uint32 {
	l, r := x>>t.hbits, x&t.mask
	for round := 3; round >= 0; round-- {
		l, r = r^t.feistelRound(l, round, m), l
	}
	return l<<t.hbits | r
}

// sigma is the cycle-walked permutation of [0, n): apply perm until the
// image lands below n. Termination: perm is a bijection of the finite
// domain, so the walk revisits the start before looping forever, and
// the expected length is domain/n < 4.
func (t *HashedRegular) sigma(x uint32, m int) uint32 {
	for {
		x = t.perm(x, m)
		if int(x) < t.n {
			return x
		}
	}
}

func (t *HashedRegular) sigmaInv(x uint32, m int) uint32 {
	for {
		x = t.permInv(x, m)
		if int(x) < t.n {
			return x
		}
	}
}

func (t *HashedRegular) N() int         { return t.n }
func (t *HashedRegular) Degree(int) int { return t.d }

// Neighbor returns v's partner in matching i: positions pair up by XOR
// 1 under σ_i, so the involution is fixed-point-free (x and x^1 always
// differ) and symmetric by construction.
func (t *HashedRegular) Neighbor(v, i int) int {
	return int(t.sigma(t.sigmaInv(uint32(v), i)^1, i))
}
func (t *HashedRegular) DegreeSum() int64 { return int64(t.n) * int64(t.d) }
func (t *HashedRegular) MinDegree() int   { return t.d }
func (t *HashedRegular) Name() string {
	return fmt.Sprintf("hashedregular(n=%d,d=%d,seed=%d)", t.n, t.d, t.seed)
}

// Rows and Cols return the torus dimensions.
func (t *ImplicitTorus) Rows() int { return t.rows }
func (t *ImplicitTorus) Cols() int { return t.cols }

// Dim returns the hypercube dimension.
func (t *ImplicitHypercube) Dim() int { return t.d }
