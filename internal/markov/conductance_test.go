package markov

import (
	"math"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
	"div/internal/spectral"
)

func TestConductanceErrors(t *testing.T) {
	g := graph.Complete(4)
	if _, err := Conductance(g, nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Conductance(g, []int{0, 1, 2, 3}); err == nil {
		t.Error("full set accepted")
	}
	if _, err := Conductance(g, []int{7}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestConductanceCycleArc(t *testing.T) {
	// A contiguous arc of k vertices on C_n has Φ = 1/k for k ≤ n/2:
	// 2 cut edges over 2m = 2n arc mass k/n.
	g := graph.Cycle(20)
	for _, k := range []int{1, 3, 7, 10} {
		s := make([]int, k)
		for i := range s {
			s[i] = i
		}
		phi, err := Conductance(g, s)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / float64(k)
		if math.Abs(phi-want) > 1e-12 {
			t.Errorf("arc k=%d: Φ = %v, want %v", k, phi, want)
		}
	}
}

func TestConductanceCompleteHalf(t *testing.T) {
	// Half of K_n: cut = (n/2)², deg mass = (n/2)(n-1); Φ = (n/2)/(n-1).
	n := 10
	g := graph.Complete(n)
	s := []int{0, 1, 2, 3, 4}
	phi, err := Conductance(g, s)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n/2) / float64(n-1)
	if math.Abs(phi-want) > 1e-12 {
		t.Errorf("Φ = %v, want %v", phi, want)
	}
}

func TestConductanceBarbellBridge(t *testing.T) {
	// One clique of the barbell: a single bridge edge crosses.
	g := graph.Barbell(6, 0)
	s := []int{0, 1, 2, 3, 4, 5}
	phi, err := Conductance(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if phi > 0.05 {
		t.Errorf("barbell clique Φ = %v, want tiny", phi)
	}
}

func TestSweepMatchesDirectConductance(t *testing.T) {
	g := graph.Cycle(12)
	order := make([]int, 12)
	for i := range order {
		order[i] = i
	}
	cut, err := Sweep(g, order)
	if err != nil {
		t.Fatal(err)
	}
	// Best prefix of the natural cycle order is the half arc: Φ = 1/6.
	if math.Abs(cut.Phi-1.0/6) > 1e-12 {
		t.Errorf("sweep Φ = %v, want 1/6", cut.Phi)
	}
	if len(cut.Set) != 6 {
		t.Errorf("sweep set size %d, want 6", len(cut.Set))
	}
	direct, err := Conductance(g, cut.Set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-cut.Phi) > 1e-12 {
		t.Errorf("sweep Φ %v != direct Φ %v", cut.Phi, direct)
	}
}

func TestSweepErrors(t *testing.T) {
	g := graph.Complete(3)
	if _, err := Sweep(g, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := Sweep(graph.MustFromEdges(1, nil), []int{0}); err == nil {
		t.Error("singleton accepted")
	}
}

func TestCheegerSweepFindsBarbellBottleneck(t *testing.T) {
	g := graph.Barbell(8, 0)
	cut, lambda2, err := CheegerSweep(g)
	if err != nil {
		t.Fatal(err)
	}
	// The spectral sweep must find (essentially) the bridge cut.
	if len(cut.Set) < 7 || len(cut.Set) > 9 {
		t.Errorf("sweep set size %d, want ≈ 8", len(cut.Set))
	}
	if cut.Phi > 0.05 {
		t.Errorf("sweep Φ = %v, want tiny", cut.Phi)
	}
	if lambda2 < 0.9 {
		t.Errorf("λ₂ = %v, want near 1 for the barbell", lambda2)
	}
}

// TestCheegerInequalities verifies both sides of Cheeger's inequality
// on a spread of graphs: (1-λ₂)/2 ≤ Φ* and Φ* ≤ √(2(1-λ₂)), where Φ*
// is the spectral sweep cut (an upper bound on Φ_G that the sweep
// construction guarantees meets the right-hand side).
func TestCheegerInequalities(t *testing.T) {
	r := rng.New(51)
	reg, err := graph.RandomRegularSeeded(120, 6, r.Uint64(), graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.ConnectedGnpSeeded(100, 0.1, r.Uint64(), 200, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		graph.Cycle(40),
		graph.Complete(30),
		graph.Barbell(10, 2),
		graph.Grid(8, 8),
		reg,
		gnp,
	}
	for _, g := range graphs {
		cut, lambda2, err := CheegerSweep(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		lower := (1 - lambda2) / 2
		upper := math.Sqrt(2 * (1 - lambda2))
		if cut.Phi < lower-1e-9 {
			t.Errorf("%v: sweep Φ %v below Cheeger lower bound %v", g, cut.Phi, lower)
		}
		if cut.Phi > upper+1e-9 {
			t.Errorf("%v: sweep Φ %v above Cheeger sweep guarantee %v", g, cut.Phi, upper)
		}
	}
}

func TestSecondEigenMatchesOracle(t *testing.T) {
	// λ₂ (signed) from the sparse routine vs the dense spectrum.
	r := rng.New(52)
	gnp, err := graph.ConnectedGnpSeeded(50, 0.2, r.Uint64(), 200, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		graph.Complete(20),
		graph.Cycle(17),
		graph.Barbell(6, 1),
		graph.Path(15),
		gnp,
	}
	for _, g := range graphs {
		lambda2, vec, err := spectral.SecondEigen(g, spectral.Options{MaxIters: 100000, Tol: 1e-14})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		vals, err := spectral.WalkSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		want := vals[len(vals)-2]
		if math.Abs(lambda2-want) > 1e-6 {
			t.Errorf("%v: λ₂ = %v, want %v", g, lambda2, want)
		}
		if len(vec) != g.N() {
			t.Errorf("%v: eigenvector length %d", g, len(vec))
		}
		// Check the eigenvector equation P·vec ≈ λ₂·vec.
		var worst float64
		for v := 0; v < g.N(); v++ {
			var sum float64
			for _, w := range g.Neighbors(v) {
				sum += vec[w]
			}
			sum /= float64(g.Degree(v))
			if d := math.Abs(sum - lambda2*vec[v]); d > worst {
				worst = d
			}
		}
		if worst > 1e-5 {
			t.Errorf("%v: eigenvector residual %v", g, worst)
		}
	}
}
