package graph

import (
	"math"
	"slices"
	"testing"

	"div/internal/rng"
)

// graphBytesEqual reports byte-level equality of the CSR arrays.
func graphBytesEqual(a, b *Graph) bool {
	if len(a.offsets) != len(b.offsets) || len(a.adj) != len(b.adj) {
		return false
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	for i := range a.adj {
		if a.adj[i] != b.adj[i] {
			return false
		}
	}
	return true
}

// seededBuilders enumerates the seeded families at test sizes, so the
// identity and seed-sensitivity checks below cover every one of them.
var seededBuilders = []struct {
	name  string
	build func(seed uint64, opts BuildOpts) (*Graph, error)
}{
	{"gnp", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return GnpSeeded(500, 0.02, seed, opts)
	}},
	{"gnpDense", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return GnpSeeded(120, 0.6, seed, opts)
	}},
	{"connectedGnp", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return ConnectedGnpSeeded(300, 0.03, seed, 200, opts)
	}},
	{"randomRegular", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return RandomRegularSeeded(400, 6, seed, opts)
	}},
	{"wattsStrogatz", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return WattsStrogatzSeeded(400, 6, 0.2, seed, opts)
	}},
	{"barabasiAlbert", func(seed uint64, opts BuildOpts) (*Graph, error) {
		return BarabasiAlbertSeeded(400, 3, seed, opts)
	}},
}

// TestBuildIdentityAcrossWorkersAndStripes: every seeded family is a
// pure function of (parameters, seed). Repeated builds in one process
// give byte-identical, valid CSR arrays whatever Workers value they
// pass — the field is ignored — so a builder that reads a map's
// iteration order or any other per-run state fails here.
func TestBuildIdentityAcrossWorkersAndStripes(t *testing.T) {
	for _, fam := range seededBuilders {
		t.Run(fam.name, func(t *testing.T) {
			ref, err := fam.build(42, BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Validate(); err != nil {
				t.Fatalf("reference graph invalid: %v", err)
			}
			for _, workers := range []int{0, 1, 2, 8} {
				g, err := fam.build(42, BuildOpts{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !graphBytesEqual(ref, g) {
					t.Fatalf("workers=%d: CSR differs from the first build", workers)
				}
			}
		})
	}
}

// TestBuildSeedSensitivity guards against a degenerate keying bug:
// different seeds must give different graphs in every family
// (overwhelmingly likely for these sizes).
func TestBuildSeedSensitivity(t *testing.T) {
	for _, fam := range seededBuilders {
		a, err := fam.build(1, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := fam.build(2, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if graphBytesEqual(a, b) {
			t.Fatalf("%s: seeds 1 and 2 produced identical graphs — keying broken", fam.name)
		}
	}
}

// TestBuildCSRMatchesNewFromEdges: the assembler over an edge list
// must equal an independently sorted adjacency, and the edge order
// must not matter — the sort phase canonicalizes whatever order the
// scatter pass writes.
func TestBuildCSRMatchesNewFromEdges(t *testing.T) {
	r := rng.New(7)
	const n = 300
	var edges []Edge
	seen := map[[2]int]bool{}
	for len(edges) < 2000 {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, Edge{U: u, V: v})
	}
	ref, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	nbrs := make([][]int32, n)
	for _, e := range edges {
		nbrs[e.U] = append(nbrs[e.U], int32(e.V))
		nbrs[e.V] = append(nbrs[e.V], int32(e.U))
	}
	for v, nb := range nbrs {
		slices.Sort(nb)
		if !slices.Equal(ref.Neighbors(v), nb) {
			t.Fatalf("vertex %d: neighbours %v, want %v", v, ref.Neighbors(v), nb)
		}
	}
	reversed := slices.Clone(edges)
	slices.Reverse(reversed)
	for i := range reversed {
		reversed[i].U, reversed[i].V = reversed[i].V, reversed[i].U
	}
	g, err := BuildCSR(n, EdgeList(n, reversed), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !graphBytesEqual(ref, g) {
		t.Fatal("reversed edge list builds a different CSR")
	}
}

// TestBuildCSRErrors pins the exact NewFromEdges error strings and that
// the earliest bad row's error is the one reported.
func TestBuildCSRErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  string
	}{
		{"negative n", -1, nil, "graph: negative vertex count -1"},
		{"out of range", 3, []Edge{{0, 1}, {1, 5}}, "graph: edge 1 (1,5) out of range [0,3)"},
		{"negative vertex", 3, []Edge{{-1, 2}}, "graph: edge 0 (-1,2) out of range [0,3)"},
		{"self loop", 3, []Edge{{0, 1}, {2, 2}}, "graph: edge 1 is a self-loop at 2"},
		{"duplicate", 3, []Edge{{0, 1}, {1, 2}, {1, 0}}, "graph: duplicate edge (0,1)"},
	}
	for _, tc := range cases {
		_, err := BuildCSR(tc.n, EdgeList(tc.n, tc.edges), BuildOpts{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Three bad rows: the earliest one's error wins.
	edges := []Edge{{0, 1}, {1, 1}, {2, 9}, {3, 3}}
	_, err := BuildCSR(4, EdgeList(4, edges), BuildOpts{})
	if want := "graph: edge 1 is a self-loop at 1"; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// TestBuildStats checks per-phase accounting is populated.
func TestBuildStats(t *testing.T) {
	var st BuildStats
	if _, err := GnpSeeded(20000, 0.004, 3, BuildOpts{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.CountNanos <= 0 || st.ScatterNanos <= 0 || st.SortNanos <= 0 {
		t.Errorf("phase nanos not populated: %+v", st)
	}
	if st.TotalNanos() < st.CountNanos {
		t.Errorf("TotalNanos %d < CountNanos %d", st.TotalNanos(), st.CountNanos)
	}

	var rrSt BuildStats
	if _, err := RandomRegularSeeded(2000, 4, 3, BuildOpts{Stats: &rrSt}); err != nil {
		t.Fatal(err)
	}
	if rrSt.SampleNanos <= 0 {
		t.Errorf("RandomRegular SampleNanos = %d, want > 0 (pairing phase)", rrSt.SampleNanos)
	}
}

// TestGnpSeededEdgeCases covers the p extremes and empty sizes.
func TestGnpSeededEdgeCases(t *testing.T) {
	g, err := GnpSeeded(100, 0, 1, BuildOpts{})
	if err != nil || g.M() != 0 || g.N() != 100 {
		t.Fatalf("p=0: g=%v err=%v", g, err)
	}
	g, err = GnpSeeded(50, 1, 1, BuildOpts{})
	if err != nil || !g.IsComplete() {
		t.Fatalf("p=1: not complete, err=%v", err)
	}
	if _, err := GnpSeeded(10, 1.5, 1, BuildOpts{}); err == nil {
		t.Fatal("p=1.5 accepted")
	}
	g, err = GnpSeeded(0, 0.5, 1, BuildOpts{})
	if err != nil || g.N() != 0 {
		t.Fatalf("n=0: g=%v err=%v", g, err)
	}
	if got := g.Name(); got != "gnp(n=0,p=0.5)" {
		t.Fatalf("name = %q", got)
	}
}

// TestGeometricSkipClamp is the satellite regression test: a
// vanishingly small p makes log(u)/lq astronomically large, and the
// skip must clamp instead of wrapping negative through the float→int
// conversion (which previously could walk the edge cursor backwards).
func TestGeometricSkipClamp(t *testing.T) {
	lq := logOneMinus(1e-300) // ≈ -1e-300
	if got := skipFromUniform(0.5, lq); got != maxGeometricSkip {
		t.Errorf("skipFromUniform(0.5, %g) = %d, want clamp %d", lq, got, maxGeometricSkip)
	}
	if got := skipFromUniform(math.SmallestNonzeroFloat64, logOneMinus(0.5)); got < 0 {
		t.Errorf("tiny u gave negative skip %d", got)
	}
	// Sane small skips are untouched.
	if got := skipFromUniform(0.25, logOneMinus(0.5)); got != 2 {
		t.Errorf("skipFromUniform(0.25, log(0.5)) = %d, want 2", got)
	}
	// End to end: a tiny-p build terminates with an (almost surely)
	// empty edge set instead of hanging.
	g, err := GnpSeeded(1000, 1e-18, 1, BuildOpts{})
	if err != nil || g.M() != 0 {
		t.Fatalf("tiny-p: g=%v err=%v", g, err)
	}
}

// TestRandomRegularSeededPairingEquivalence replays the seeded
// pairing's exact draw sequence through a map-dedup reference
// implementation: the flat-table dedup must change nothing about
// which edges get paired. This is the serial-equivalence proof for
// the stream-keyed pairing.
func TestRandomRegularSeededPairingEquivalence(t *testing.T) {
	const n, d = 500, 6
	for seed := uint64(0); seed < 5; seed++ {
		g, err := RandomRegularSeeded(n, d, seed, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ref, attempts := mapPairingReference(n, d, seed)
		if ref == nil {
			t.Fatalf("seed %d: reference pairing failed where builder succeeded", seed)
		}
		refG, err := NewFromEdges(n, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !graphBytesEqual(g, refG) {
			t.Fatalf("seed %d: flat-table pairing differs from map reference (after %d attempts)", seed, attempts)
		}
	}
}

// mapPairingReference mirrors tryPairingTable draw for draw, with the
// edge-keyed map dedup instead of the neighbour table.
func mapPairingReference(n, d int, seed uint64) ([]Edge, int) {
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		s := rng.NewStream(seed, uint64(attempt))
		stubs := make([]int32, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		for i := len(stubs) - 1; i > 0; i-- {
			j := int(s.Uint64n(uint64(i + 1)))
			stubs[i], stubs[j] = stubs[j], stubs[i]
		}
		adj := make(map[int64]bool, n*d/2)
		edges := make([]Edge, 0, n*d/2)
		ok := true
		for len(stubs) > 0 {
			u := stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			paired := false
			for try := 0; try < 4*len(stubs)+16 && len(stubs) > 0; try++ {
				j := int(s.Uint64n(uint64(len(stubs))))
				v := stubs[j]
				if v == u || adj[key(u, v)] {
					continue
				}
				stubs[j] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				adj[key(u, v)] = true
				edges = append(edges, Edge{U: int(u), V: int(v)})
				paired = true
				break
			}
			if !paired {
				ok = false
				break
			}
		}
		if ok {
			return edges, attempt + 1
		}
	}
	return nil, 0
}

// TestWattsStrogatzSeededLattice: with beta = 0 there is no
// randomness, and the graph must be the circulant C_n(1, …, d/2) byte
// for byte — this pins the lattice fill.
func TestWattsStrogatzSeededLattice(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{20, 4}, {101, 6}, {64, 2}} {
		strides := make([]int, tc.d/2)
		for i := range strides {
			strides[i] = i + 1
		}
		seeded, err := WattsStrogatzSeeded(tc.n, tc.d, 0, 99, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !graphBytesEqual(Circulant(tc.n, strides), seeded) {
			t.Fatalf("n=%d d=%d: beta=0 lattice differs from the circulant", tc.n, tc.d)
		}
	}
}

// TestWattsStrogatzSeededRewireReplay checks rewireLattice's
// deviation hashing against a reference that replays the same
// Stream (seed, 0) over a full edge map: every rewiring decision, and
// so every edge, must agree. Small n with large beta forces target
// conflicts and exhausted retries.
func TestWattsStrogatzSeededRewireReplay(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		beta float64
	}{{200, 6, 0.3}, {101, 4, 1}, {64, 2, 0.5}, {30, 8, 0.9}, {12, 10, 0.7}} {
		for seed := uint64(0); seed < 5; seed++ {
			ref, err := NewFromEdges(tc.n, wattsStrogatzMapReference(tc.n, tc.d, tc.beta, seed))
			if err != nil {
				t.Fatal(err)
			}
			g, err := WattsStrogatzSeeded(tc.n, tc.d, tc.beta, seed, BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !graphBytesEqual(g, ref) {
				t.Fatalf("n=%d d=%d beta=%g seed=%d: rewiring differs from the edge-map replay",
					tc.n, tc.d, tc.beta, seed)
			}
		}
	}
}

// wattsStrogatzMapReference is the Watts–Strogatz rewiring scan over a
// full edge-membership map, drawing from the stream the builder uses.
func wattsStrogatzMapReference(n, d int, beta float64, seed uint64) []Edge {
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	adj := make(map[int64]bool)
	var edges []Edge
	for v := 0; v < n; v++ {
		for s := 1; s <= d/2; s++ {
			edges = append(edges, Edge{U: v, V: (v + s) % n})
			adj[key(v, (v+s)%n)] = true
		}
	}
	s := rng.NewStream(seed, 0)
	for i := range edges {
		if s.Float64() >= beta {
			continue
		}
		e := edges[i]
		for try := 0; try < 64; try++ {
			t := int(s.Uint64n(uint64(n)))
			if t == e.U || t == e.V || adj[key(e.U, t)] {
				continue
			}
			delete(adj, key(e.U, e.V))
			adj[key(e.U, t)] = true
			edges[i].V = t
			break
		}
	}
	return edges
}

// TestSeededBuildersValidate runs the structural validator and basic
// family invariants over every seeded family.
func TestSeededBuildersValidate(t *testing.T) {
	g, err := RandomRegularSeeded(300, 8, 5, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular() || g.MaxDegree() != 8 {
		t.Fatalf("not 8-regular: min=%d max=%d", g.MinDegree(), g.MaxDegree())
	}

	g, err = ConnectedGnpSeeded(300, 0.03, 5, 200, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("ConnectedGnpSeeded returned a disconnected graph")
	}

	g, err = BarabasiAlbertSeeded(500, 3, 5, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := int64(4*3/2 + (500-4)*3); int64(g.M()) != want {
		t.Fatalf("BA edge count %d, want %d", g.M(), want)
	}

	g, err = WattsStrogatzSeeded(300, 6, 0.3, 5, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if int64(g.M()) != 300*3 {
		t.Fatalf("WS edge count %d, want %d", g.M(), 300*3)
	}
}

// TestBuildCSRReplayMismatchPanics pins the assembler's contract
// violation behaviour: a source that emits different edges in the two
// passes must fail loudly (cursor overrun), never return a silently
// corrupt graph.
func TestBuildCSRReplayMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from replay-contract violation")
		}
	}()
	// The first enumeration (count) emits one edge, the second
	// (scatter) two.
	calls := 0
	flaky := edgeFunc(func(emit func(v, w int32)) error {
		calls++
		emit(0, 1)
		if calls > 1 {
			emit(2, 3)
		}
		return nil
	})
	_, _ = BuildCSR(4, flaky, BuildOpts{})
}

// TestEdgeListSourceRows sanity-checks the EdgeList view: the count
// pass tallies both endpoints of every edge and the scatter pass
// writes both arcs through the cursors, in edge order.
func TestEdgeListSourceRows(t *testing.T) {
	src := EdgeList(5, []Edge{{0, 1}, {2, 3}, {0, 3}})
	counts := make([]int32, 6)
	if err := src.CountEdges(counts); err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 2, 1, 1, 2, 0}; !slices.Equal(counts, want) {
		t.Fatalf("counts %v, want %v", counts, want)
	}
	fill := []int64{0, 2, 3, 4, 6}
	adj := make([]int32, 6)
	src.ScatterEdges(fill, adj)
	if want := []int32{1, 3, 0, 3, 2, 0}; !slices.Equal(adj, want) {
		t.Fatalf("adj %v, want %v", adj, want)
	}
	if src.Presorted() {
		t.Fatal("an edge list claims a presorted scatter")
	}
}

// FuzzBuildStripes fuzzes the G(n,p) row enumeration: for any
// (n, p, seed), the memoized count/scatter build with its presorted
// verify must equal an edge-list build of the same row-keyed skip
// chains, which goes through the generic scatter and sort.
func FuzzBuildStripes(f *testing.F) {
	f.Add(uint16(100), uint16(50), uint64(1))
	f.Add(uint16(2), uint16(999), uint64(0))
	f.Add(uint16(257), uint16(10), uint64(123))
	f.Fuzz(func(t *testing.T, nRaw, pMille uint16, seed uint64) {
		n := int(nRaw%400) + 1
		p := float64(pMille%1000) / 1000
		g, err := GnpSeeded(n, p, seed, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			return // built without the skip chain
		}
		var edges []Edge
		lq := logOneMinus(p)
		var c rng.Counter
		for v := 1; v < n; v++ {
			c.Seed(seed, uint64(v))
			w := -1
			for {
				w += 1 + geometricSkipCounter(&c, lq)
				if w >= v || w < 0 {
					break
				}
				edges = append(edges, Edge{U: v, V: w})
			}
		}
		ref, err := NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !graphBytesEqual(ref, g) {
			t.Fatalf("n=%d p=%g seed=%d: differs from the edge-list replay", n, p, seed)
		}
	})
}
