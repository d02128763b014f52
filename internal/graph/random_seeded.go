package graph

import (
	"fmt"
	"math"
	"slices"
	"time"

	"div/internal/rng"
)

// This file holds the random-family builders, the module's only
// random-graph constructors. Each draws from Philox counter streams
// keyed on the build seed, so a graph is a pure function of (family
// parameters, seed), and is assembled directly into CSR form
// (BuildCSR, no []Edge detour).
//
// The sampling laws are pinned by closed forms and exact replays in
// build_law_test.go and build_test.go: Binomial degree and edge-count
// laws for G(n,p), Friedman's λ for random-regular graphs and the
// G(n,p) spectral bound for the connected variant, a byte-for-byte
// lattice at β = 0 and a full edge-map replay of the rewiring for
// Watts–Strogatz, and the degree-proportional attachment law for
// Barabási–Albert.

// GnpSeeded returns G(n,p) as a pure function of (n, p, seed): row v
// samples its edges {w, v} (w < v) by geometric skipping from a Philox
// counter stream keyed (seed, v). Restarting the Batagelj–Brandes
// skip chain at each row boundary still makes every pair an
// independent Bernoulli(p).
// For p ≥ 2(1+ε)log(n)/n these are expanders with λ ≲ 2/√(np) w.h.p.
// (paper, "Graphs with small second eigenvalue").
func GnpSeeded(n int, p float64, seed uint64, opts BuildOpts) (*Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: Gnp probability %v out of [0,1]", p)
	}
	name := fmt.Sprintf("gnp(n=%d,p=%g)", n, p)
	switch {
	case p == 0:
		g, err := BuildCSR(n, EdgeList(n, nil), opts)
		if err != nil {
			return nil, err
		}
		return g.WithName(name), nil
	case p == 1:
		return Complete(n).WithName(name), nil
	}
	g, err := BuildCSR(n, &gnpSource{n: n, p: p, lq: logOneMinus(p), seed: seed}, opts)
	if err != nil {
		return nil, err
	}
	return g.WithName(name), nil
}

// logOneMinus returns log(1-p) computed stably for the skipping trick.
func logOneMinus(p float64) float64 {
	return math.Log1p(-p)
}

// maxGeometricSkip caps the skip count: large enough to jump past any
// representable pair range in one step, small enough that a caller's
// position + 1 + skip can never overflow int. Without the cap, tiny p
// (lq → 0⁻) makes log(u)/lq exceed the int64 range and the float→int
// conversion is undefined (on amd64 it wraps negative, which would
// walk the Batagelj–Brandes cursor backwards forever).
const maxGeometricSkip = 1 << 62

// skipFromUniform converts a uniform u ∈ (0,1) into a Geometric
// skip count given lq = log(1-p) < 0, clamped to maxGeometricSkip.
func skipFromUniform(u, lq float64) int {
	f := math.Log(u) / lq
	if f >= maxGeometricSkip {
		return maxGeometricSkip
	}
	return int(f)
}

// geometricSkipCounter returns a Geometric(p)-distributed skip count
// (the number of failures before the next success) given
// lq = log(1-p), drawn from a per-row Philox counter stream.
func geometricSkipCounter(c *rng.Counter, lq float64) int {
	u := c.Float64()
	for u == 0 {
		u = c.Float64()
	}
	return skipFromUniform(u, lq)
}

// gnpSource enumerates row v's edges to smaller vertices from the
// row-keyed counter stream. The count pass memoizes its draws — just
// the neighbour values, 4 bytes per edge, since the owning vertex is
// implied by the per-row lengths — and the scatter pass replays the
// memo instead of re-running the geometric skip chain, so each edge is
// sampled exactly once. The replay frees the memo, bounding the
// build's transient overhead at one int32 per edge between the passes.
type gnpSource struct {
	n    int
	p    float64
	lq   float64
	seed uint64

	ws     []int32 // neighbour draws, rows 0..n-1 concatenated
	rowLen []int32 // draws per row
}

// CountEdges runs every row's skip chain, tallying both endpoints'
// degrees (the row side batched per row) and filling the memo. The
// memo is sized to the expected edge count (p · n(n-1)/2, plus four
// standard deviations of Binomial slack), so appends almost never
// reallocate.
func (s *gnpSource) CountEdges(counts []int32) error {
	mean := s.p * float64(s.n) * float64(s.n-1) / 2
	s.ws = make([]int32, 0, int(mean+4*math.Sqrt(mean)+16))
	s.rowLen = make([]int32, s.n)
	var c rng.Counter
	for v := 1; v < s.n; v++ {
		c.Seed(s.seed, uint64(v))
		w := -1
		var rl int32
		for {
			w += 1 + geometricSkipCounter(&c, s.lq)
			if w >= v || w < 0 {
				break
			}
			s.ws = append(s.ws, int32(w))
			counts[w+1]++
			rl++
		}
		s.rowLen[v] = rl
		counts[v+1] += rl
	}
	return nil
}

// ScatterEdges replays the count pass's memo straight into the arc
// slab, then frees it.
func (s *gnpSource) ScatterEdges(fill []int64, adj []int32) {
	i := 0
	for v, rl := range s.rowLen {
		vv := int32(v)
		for _, w := range s.ws[i : i+int(rl)] {
			a := fill[vv]
			fill[vv] = a + 1
			adj[a] = w
			b := fill[w]
			fill[w] = b + 1
			adj[b] = vv
		}
		i += int(rl)
	}
	s.ws, s.rowLen = nil, nil
}

// Presorted: the skip chain emits each row ascending and every edge is
// owned by its larger endpoint, so the scatter writes every adjacency
// already sorted.
func (s *gnpSource) Presorted() bool { return true }

// ConnectedGnpSeeded draws GnpSeeded repeatedly until the sample is
// connected, up to maxTries attempts (the voting processes are defined
// on connected graphs); attempt i builds from
// DeriveSeed(seed, i), so the result is still a pure function of
// (n, p, seed).
func ConnectedGnpSeeded(n int, p float64, seed uint64, maxTries int, opts BuildOpts) (*Graph, error) {
	for i := 0; i < maxTries; i++ {
		g, err := GnpSeeded(n, p, rng.DeriveSeed(seed, uint64(i)), opts)
		if err != nil {
			return nil, err
		}
		if IsConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: ConnectedGnp(n=%d,p=%g) not connected after %d tries", n, p, maxTries)
}

// RandomRegularSeeded returns a uniform-ish random d-regular simple
// graph built from a keyed stream: attempt a of the configuration-
// model pairing draws from Stream (seed, a), and BuildCSR assembles
// the paired half-edge table. d·n half-edges are paired uniformly;
// pairings creating self-loops or multi-edges are rerolled, and the
// whole pairing restarts if it gets stuck. For d = o(√n) the result is
// asymptotically uniform, and random d-regular graphs satisfy
// λ = O(1/√d) w.h.p. (the paper's second example family). Duplicate
// pairs are detected in a flat n×d neighbour table —
// TestRandomRegularSeededPairingEquivalence replays the same stream
// through a map-based reference to prove the table changes nothing.
//
// Requires 0 ≤ d < n and d·n even.
func RandomRegularSeeded(n, d int, seed uint64, opts BuildOpts) (*Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular requires 0 <= d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular requires n*d even, got n=%d d=%d", n, d)
	}
	name := fmt.Sprintf("randomRegular(n=%d,d=%d)", n, d)
	if d == 0 {
		g, err := BuildCSR(n, EdgeList(n, nil), opts)
		if err != nil {
			return nil, err
		}
		return g.WithName(name), nil
	}
	const maxAttempts = 1000
	src := &regularTableSource{n: n, d: d}
	src.nbr = make([]int32, n*d)
	src.cnt = make([]int32, n)
	stubs := make([]int32, 0, n*d)
	var s rng.Stream
	for attempt := 0; attempt < maxAttempts; attempt++ {
		start := time.Now()
		s.Seed(seed, uint64(attempt))
		ok := tryPairingTable(n, d, &s, src, stubs)
		opts.observeSample(time.Since(start))
		if !ok {
			continue
		}
		g, err := BuildCSR(n, edgeFunc(src.edges), opts)
		if err != nil {
			// Should be impossible: the pairing guarantees simplicity.
			return nil, fmt.Errorf("graph: RandomRegular produced invalid pairing: %w", err)
		}
		return g.WithName(name), nil
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d,d=%d) failed after %d attempts", n, d, maxAttempts)
}

// regularTableSource is the paired half-edge table: row v owns its
// table entries with larger endpoint, so edges emits every edge
// exactly once.
type regularTableSource struct {
	n, d int
	nbr  []int32 // nbr[v*d : v*d+cnt[v]] = neighbours of v
	cnt  []int32
}

func (s *regularTableSource) edges(emit func(v, w int32)) error {
	for v := 0; v < s.n; v++ {
		row := s.nbr[v*s.d : v*s.d+int(s.cnt[v])]
		for _, w := range row {
			if w > int32(v) {
				emit(int32(v), w)
			}
		}
	}
	return nil
}

// hasNeighbor reports whether w already appears in v's table row: the
// O(d) flat-table dedup. A map keyed by edge would cost ~1 GB of
// overhead at n = 10⁷ half-edges, against the table's 4·n·d bytes
// that double as the assembly input.
func (s *regularTableSource) hasNeighbor(v, w int32) bool {
	row := s.nbr[int(v)*s.d : int(v)*s.d+int(s.cnt[v])]
	for _, x := range row {
		if x == w {
			return true
		}
	}
	return false
}

func (s *regularTableSource) addEdge(u, v int32) {
	s.nbr[int(u)*s.d+int(s.cnt[u])] = v
	s.cnt[u]++
	s.nbr[int(v)*s.d+int(s.cnt[v])] = u
	s.cnt[v]++
}

// tryPairingTable is one configuration-model pairing attempt driven by
// the keyed stream, recording edges into src's table. The draw
// sequence is Fisher–Yates over the stub list, then repeatedly pair
// the last stub with a random earlier one, retrying a conflict up to
// 4·(stubs left)+16 times before giving up on the attempt.
func tryPairingTable(n, d int, s *rng.Stream, src *regularTableSource, stubs []int32) bool {
	stubs = stubs[:0]
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	for i := len(stubs) - 1; i > 0; i-- {
		j := int(s.Uint64n(uint64(i + 1)))
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	clear(src.cnt)
	for len(stubs) > 0 {
		u := stubs[len(stubs)-1]
		stubs = stubs[:len(stubs)-1]
		paired := false
		for try := 0; try < 4*len(stubs)+16 && len(stubs) > 0; try++ {
			j := int(s.Uint64n(uint64(len(stubs))))
			v := stubs[j]
			if v == u || src.hasNeighbor(u, v) {
				continue
			}
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			src.addEdge(u, v)
			paired = true
			break
		}
		if !paired {
			return false
		}
	}
	return true
}

// WattsStrogatzSeeded returns the small-world graph built from a keyed
// stream: a ring lattice where every vertex connects to its d/2
// nearest neighbours on each side, with each edge independently
// rewired to a uniform random non-conflicting endpoint with
// probability beta. d must be even, 2 ≤ d < n. The rewiring pass
// scans the lattice edges in order on Stream (seed, 0).
func WattsStrogatzSeeded(n, d int, beta float64, seed uint64, opts BuildOpts) (*Graph, error) {
	if d%2 != 0 || d < 2 || d >= n {
		return nil, fmt.Errorf("graph: WattsStrogatz requires even 2 <= d < n, got d=%d n=%d", d, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: WattsStrogatz beta %v out of [0,1]", beta)
	}
	half := d / 2
	edges := make([]Edge, 0, n*half)
	for v := 0; v < n; v++ {
		for s := 1; s <= half; s++ {
			edges = append(edges, Edge{U: v, V: (v + s) % n})
		}
	}
	if beta > 0 {
		start := time.Now()
		rewireLattice(n, half, beta, seed, edges)
		opts.observeSample(time.Since(start))
	}
	g, err := BuildCSR(n, EdgeList(n, edges), opts)
	if err != nil {
		return nil, err
	}
	return g.WithName(fmt.Sprintf("wattsStrogatz(n=%d,d=%d,beta=%g)", n, d, beta)), nil
}

// rewireLattice is the sequential Watts–Strogatz rewiring pass: edge
// i rewires with probability beta, its far endpoint moving to the
// first of up to 64 uniform targets that is neither endpoint nor
// already adjacent to the near one. Lattice membership is arithmetic
// (ring distance ≤ half), so only the deviations from the lattice —
// edges removed by rewiring, edges added by it — need hashing;
// TestWattsStrogatzSeededRewireReplay checks this against a full
// edge-map replay of the same stream.
func rewireLattice(n, half int, beta float64, seed uint64, edges []Edge) {
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	isLattice := func(u, v int) bool {
		if u == v {
			return false
		}
		dist := u - v
		if dist < 0 {
			dist = -dist
		}
		if n-dist < dist {
			dist = n - dist
		}
		return dist <= half
	}
	removed := make(map[int64]bool)
	added := make(map[int64]bool)
	member := func(u, v int) bool {
		k := key(u, v)
		return added[k] || (isLattice(u, v) && !removed[k])
	}
	s := rng.NewStream(seed, 0)
	for i := range edges {
		if s.Float64() >= beta {
			continue
		}
		e := edges[i]
		// Rewire the far endpoint to a uniform valid target.
		for try := 0; try < 64; try++ {
			t := int(s.Uint64n(uint64(n)))
			if t == e.U || t == e.V || member(e.U, t) {
				continue
			}
			if k := key(e.U, e.V); added[k] {
				delete(added, k)
			} else {
				removed[k] = true
			}
			if k := key(e.U, t); removed[k] {
				delete(removed, k)
			} else {
				added[k] = true
			}
			edges[i].V = t
			break
		}
	}
}

// BarabasiAlbertSeeded returns the preferential-attachment graph built
// from Stream (seed, 0): starting from a clique on m0 = m+1 vertices,
// each new vertex attaches to m distinct existing vertices chosen with
// probability proportional to degree. Heavy-tailed degrees; the
// canonical irregular test bed for the vertex vs. edge process
// comparison (E10). Attachment is inherently sequential — each
// arrival's degree-proportional draws condition on every earlier edge.
func BarabasiAlbertSeeded(n, m int, seed uint64, opts BuildOpts) (*Graph, error) {
	if m < 1 || m+1 > n {
		return nil, fmt.Errorf("graph: BarabasiAlbert requires 1 <= m < n, got m=%d n=%d", m, n)
	}
	start := time.Now()
	m0 := m + 1
	// targets holds one entry per half-edge endpoint, so a uniform draw
	// from it is a degree-proportional draw.
	targets := make([]int32, 0, int64(m0)*int64(m0-1)+2*int64(n-m0)*int64(m))
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			targets = append(targets, int32(u), int32(v))
		}
	}
	picks := make([]int32, 0, int64(n-m0)*int64(m))
	s := rng.NewStream(seed, 0)
	chosen := make(map[int32]bool, m)
	row := make([]int32, 0, m)
	for v := m0; v < n; v++ {
		clear(chosen)
		for len(chosen) < m {
			t := targets[int(s.Uint64n(uint64(len(targets))))]
			chosen[t] = true
		}
		// Drain the set in sorted order: map iteration order is
		// randomized per range, and the order entries land in targets
		// feeds back into every later degree-proportional draw, so the
		// same seed would otherwise build a different graph each run.
		// Sorting fixes the order without changing the attachment law
		// (the chosen set is identical; only list layout was random).
		row = row[:0]
		for t := range chosen {
			row = append(row, t)
		}
		slices.Sort(row)
		for _, t := range row {
			picks = append(picks, t)
			targets = append(targets, int32(v), t)
		}
	}
	opts.observeSample(time.Since(start))
	g, err := BuildCSR(n, edgeFunc(baSource{m0: m0, m: m, n: n, picks: picks}.edges), opts)
	if err != nil {
		return nil, err
	}
	return g.WithName(fmt.Sprintf("barabasiAlbert(n=%d,m=%d)", n, m)), nil
}

// baSource is the recorded attachment picks: rows below m0 own the
// seed-clique edges to larger clique vertices, row v ≥ m0 owns its m
// attachment edges (targets always predate v).
type baSource struct {
	m0, m, n int
	picks    []int32
}

func (s baSource) edges(emit func(v, w int32)) error {
	for v := 0; v < s.n; v++ {
		if v < s.m0 {
			for u := v + 1; u < s.m0; u++ {
				emit(int32(v), int32(u))
			}
			continue
		}
		row := s.picks[(v-s.m0)*s.m : (v-s.m0+1)*s.m]
		for _, t := range row {
			emit(int32(v), t)
		}
	}
	return nil
}
