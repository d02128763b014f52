package spectral

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
)

func TestJacobiDiagonal(t *testing.T) {
	m := NewSymMatrix(3)
	m.Set(0, 0, 3)
	m.Set(1, 1, -1)
	m.Set(2, 2, 2)
	vals, err := Jacobi(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("eigenvalue %d = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestJacobi2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewSymMatrix(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 2)
	m.Set(0, 1, 1)
	vals, err := Jacobi(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Errorf("eigenvalues %v, want [1 3]", vals)
	}
}

func TestJacobiTraceAndEmpty(t *testing.T) {
	vals, err := Jacobi(NewSymMatrix(0))
	if err != nil || vals != nil {
		t.Errorf("empty matrix: %v, %v", vals, err)
	}
	// Trace is preserved: random symmetric matrix.
	r := rng.New(5)
	n := 20
	m := NewSymMatrix(n)
	var trace float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Float64()*2 - 1
			m.Set(i, j, v)
			if i == j {
				trace += v
			}
		}
	}
	vals, err = Jacobi(m)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-trace) > 1e-9 {
		t.Errorf("eigenvalue sum %v != trace %v", sum, trace)
	}
}

func TestWalkSpectrumTopEigenvalueIsOne(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Complete(8), graph.Cycle(9), graph.Path(6), graph.Star(7),
	} {
		vals, err := WalkSpectrum(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		top := vals[len(vals)-1]
		if math.Abs(top-1) > 1e-10 {
			t.Errorf("%v: top walk eigenvalue %v, want 1", g, top)
		}
		for _, v := range vals {
			if v < -1-1e-10 || v > 1+1e-10 {
				t.Errorf("%v: walk eigenvalue %v outside [-1,1]", g, v)
			}
		}
	}
}

// checkLambda holds the sparse Lambda to the exact λ: within 1e-10, never
// above it by more than 1e-12 (the lower-bound contract), and
// bit-identical across calls (the graph-cache memo relies on it).
func checkLambda(t *testing.T, g *graph.Graph, exact float64) {
	t.Helper()
	got, err := Lambda(g, Options{})
	if err != nil {
		t.Fatalf("%v: sparse: %v", g, err)
	}
	if math.Abs(got-exact) > 1e-10 {
		t.Errorf("%v: sparse λ = %.15f vs exact %.15f", g, got, exact)
	}
	if got > exact+1e-12 {
		t.Errorf("%v: sparse λ = %.15f above exact %.15f: not a lower bound", g, got, exact)
	}
	again, err := Lambda(g, Options{})
	if err != nil || math.Float64bits(again) != math.Float64bits(got) {
		t.Errorf("%v: second call returned (%v, %v), first %v", g, again, err, got)
	}
}

func TestLambdaExactClosedForms(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K5", graph.Complete(5), LambdaComplete(5)},
		{"K20", graph.Complete(20), LambdaComplete(20)},
		{"C9", graph.Cycle(9), LambdaCycle(9)},
		{"C8 (bipartite)", graph.Cycle(8), 1},
		{"P10 (bipartite)", graph.Path(10), LambdaPath(10)},
		{"Q3 (bipartite)", graph.Hypercube(3), LambdaHypercube(3)},
		{"K33", graph.CompleteBipartite(3, 3), LambdaCompleteBipartite(3, 3)},
		{"C10(1,2)", graph.Circulant(10, []int{1, 2}), LambdaCirculant(10, []int{1, 2})},
		{"C11(1,2,3)", graph.Circulant(11, []int{1, 2, 3}), LambdaCirculant(11, []int{1, 2, 3})},
		// Slow spectral gaps and large symmetric graphs: sparse only.
		{"C1025", graph.Cycle(1025), LambdaCycle(1025)},
		{"P400 (bipartite)", graph.Path(400), LambdaPath(400)},
		{"T33x33", graph.Torus(33, 33), LambdaTorus(33, 33)},
		{"Q10 (bipartite)", graph.Hypercube(10), LambdaHypercube(10)},
		{"K1024", graph.Complete(1024), LambdaComplete(1024)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// The dense oracle is O(n³); it checks the small rows.
			if tc.g.N() <= 64 {
				got, err := LambdaExact(tc.g)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-tc.want) > 1e-9 {
					t.Errorf("λ = %v, want %v", got, tc.want)
				}
			}
			checkLambda(t, tc.g, tc.want)
		})
	}
}

func TestLambdaSparseMatchesExact(t *testing.T) {
	r := rng.New(7)
	gnp, err := graph.ConnectedGnp(60, 0.15, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.RandomRegular(50, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		graph.Complete(30),
		graph.Cycle(25),
		graph.Star(20),
		graph.Barbell(8, 2),
		gnp,
		reg,
		// Breakdown at step 1, and bipartite graphs with λ = 1.
		graph.Complete(2),
		graph.Cycle(8),
		graph.Hypercube(3),
		graph.CompleteBipartite(3, 3),
	}
	for _, g := range graphs {
		if !graph.IsConnected(g) {
			t.Fatalf("%v disconnected", g)
		}
		exact, err := LambdaExact(g)
		if err != nil {
			t.Fatalf("%v: exact: %v", g, err)
		}
		checkLambda(t, g, exact)
	}
}

// TestLambdaStartSeedIndependent runs the benchmark's graph shape from
// two start vectors: a stop rule that quit early would show as
// disagreement between them.
func TestLambdaStartSeedIndependent(t *testing.T) {
	g, err := graph.RandomRegularSeeded(1<<14, 8, 1, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Lambda(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lambda(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("λ from seed 1 = %.15f, from seed 7 = %.15f", a, b)
	}
}

// TestLambdaMemoryLinear pins the O(n) memory rule: one call allocates
// at most five n-vectors plus O(MaxIters) for the tridiagonal. A
// stored Krylov basis (k ≈ 250 vectors here) would be ~33 MB.
func TestLambdaMemoryLinear(t *testing.T) {
	g, err := graph.RandomRegularSeeded(1<<14, 8, 1, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}.withDefaults()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Lambda(g, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(5*8*g.N() + 64*opts.MaxIters)
	if got > limit {
		t.Errorf("Lambda allocated %d bytes, limit 5·8·n + 64·MaxIters = %d", got, limit)
	}
}

// TestLambdaNotConverged: hitting MaxIters reports ErrNotConverged
// with a value that is still a lower bound on λ.
func TestLambdaNotConverged(t *testing.T) {
	g := graph.Path(20000)
	got, err := Lambda(g, Options{MaxIters: 50})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if got <= 0 || got > LambdaPath(20000) {
		t.Errorf("bound %v outside (0, %v]", got, LambdaPath(20000))
	}
	l2, vec, err := SecondEigen(g, Options{MaxIters: 50})
	if !errors.Is(err, ErrNotConverged) || len(vec) != g.N() || l2 > Lambda2Path(20000) {
		t.Errorf("SecondEigen capped = (%v, len %d, %v), want a bound ≤ %v and ErrNotConverged",
			l2, len(vec), err, Lambda2Path(20000))
	}
}

func TestLambdaErrors(t *testing.T) {
	if _, err := Lambda(graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}), Options{}); err == nil {
		t.Error("Lambda on disconnected graph succeeded")
	}
	if _, err := Lambda(graph.MustFromEdges(1, nil), Options{}); err == nil {
		t.Error("Lambda on singleton succeeded")
	}
	if _, err := WalkMatrix(graph.MustFromEdges(2, nil)); err == nil {
		t.Error("WalkMatrix with degree-zero vertex succeeded")
	}
}

func TestLambdaRandomRegularNearBound(t *testing.T) {
	// λ of a random d-regular graph should be near 2√(d-1)/d and far
	// below 1.
	r := rng.New(8)
	g, err := graph.RandomRegular(400, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := Lambda(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := LambdaRandomRegularBound(8)
	if lam > 1.2*bound {
		t.Errorf("λ = %v exceeds 1.2× Friedman bound %v", lam, bound)
	}
	if lam < 0.5*bound {
		t.Errorf("λ = %v suspiciously below bound %v", lam, bound)
	}
}

func TestLambdaGnpNearBound(t *testing.T) {
	r := rng.New(9)
	g, err := graph.ConnectedGnp(500, 0.05, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := Lambda(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := LambdaGnpBound(500, 0.05)
	if lam > 1.5*bound {
		t.Errorf("λ = %v exceeds 1.5× bound %v", lam, bound)
	}
}

func TestMixingTimeBound(t *testing.T) {
	if !math.IsInf(MixingTimeBound(1, 0.01, 0.25), 1) {
		t.Error("λ=1 should give infinite mixing bound")
	}
	got := MixingTimeBound(0.5, 0.01, 0.25)
	want := math.Log(1/(0.25*0.01)) / 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MixingTimeBound = %v, want %v", got, want)
	}
}

func TestLambdaCirculantMatchesCycle(t *testing.T) {
	// C_n(1) is the cycle.
	for _, n := range []int{5, 9, 15} {
		if got, want := LambdaCirculant(n, []int{1}), LambdaCycle(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: circulant closed form %v vs cycle %v", n, got, want)
		}
	}
}

func TestLambdaPetersenOracle(t *testing.T) {
	// Petersen adjacency eigenvalues are 3, 1 (×5), -2 (×4); the walk
	// spectrum is 1, 1/3, -2/3 so λ = 2/3 exactly.
	g := graph.Petersen()
	exact, err := LambdaExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-2.0/3) > 1e-10 {
		t.Errorf("dense λ(Petersen) = %v, want 2/3", exact)
	}
	sparse, err := Lambda(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sparse-2.0/3) > 1e-8 {
		t.Errorf("sparse λ(Petersen) = %v, want 2/3", sparse)
	}
	l2, _, err := SecondEigen(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-1.0/3) > 1e-6 {
		t.Errorf("λ₂(Petersen) = %v, want 1/3", l2)
	}
}
