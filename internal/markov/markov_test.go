package markov

import (
	"math"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
	"div/internal/spectral"
	"div/internal/stats"
)

func TestNewWalkerErrors(t *testing.T) {
	if _, err := NewWalker(graph.MustFromEdges(0, nil)); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := NewWalker(graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}})); err == nil {
		t.Error("isolated vertex accepted")
	}
}

func TestEvolveConservesMass(t *testing.T) {
	g := graph.Barbell(5, 3)
	w, err := NewWalker(g)
	if err != nil {
		t.Fatal(err)
	}
	dist := w.Evolve(0, 25)
	var sum float64
	for _, p := range dist {
		if p < 0 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("mass %v after evolution", sum)
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	g := graph.Star(7)
	w, err := NewWalker(g)
	if err != nil {
		t.Fatal(err)
	}
	pi := g.Stationary()
	next := make([]float64, g.N())
	// The star is bipartite so the walk is periodic, but π·P = π still.
	w.EvolveStep(next, pi)
	for v := range pi {
		if math.Abs(next[v]-pi[v]) > 1e-12 {
			t.Errorf("π not stationary at %d: %v vs %v", v, next[v], pi[v])
		}
	}
}

func TestCompleteGraphMixesInOneStepish(t *testing.T) {
	// On K_n the walk is within TV = 1/(n-1)-ish of π after one step.
	g := graph.Complete(50)
	w, err := NewWalker(g)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := w.MixingTV(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.03 {
		t.Errorf("TV after one step on K_50 = %v", tv)
	}
}

func TestTVDecayRateMatchesLambda(t *testing.T) {
	// On a non-bipartite cycle, TV distance decays like λ^t
	// asymptotically; the measured per-step ratio should approach λ.
	g := graph.Cycle(15)
	w, err := NewWalker(g)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := spectral.LambdaExact(g)
	if err != nil {
		t.Fatal(err)
	}
	tv200, err := w.MixingTV(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	tv210, err := w.MixingTV(0, 210)
	if err != nil {
		t.Fatal(err)
	}
	rate := math.Pow(tv210/tv200, 1.0/10)
	if math.Abs(rate-lam) > 0.02 {
		t.Errorf("TV decay rate %v vs λ = %v", rate, lam)
	}
}

func TestTVDistanceErrors(t *testing.T) {
	if _, err := TVDistance([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	d, err := TVDistance([]float64{1, 0}, []float64{0, 1})
	if err != nil || d != 1 {
		t.Errorf("disjoint TV = %v, %v", d, err)
	}
}

func TestEmpiricalMatchesExact(t *testing.T) {
	g := graph.Cycle(9)
	w, err := NewWalker(g)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	exact := w.Evolve(0, 6)
	emp := w.EmpiricalDistribution(0, 6, 200000, r)
	tv, err := TVDistance(exact, emp)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.01 {
		t.Errorf("empirical vs exact TV = %v", tv)
	}
}

func TestHittingTimePathScalesQuadratically(t *testing.T) {
	// Expected hitting time of the far end of a path is Θ(n²); check
	// the ratio between n=16 and n=32 is ≈ 4.
	r := rng.New(6)
	mean := func(n int) float64 {
		g := graph.Path(n)
		w, err := NewWalker(g)
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for i := 0; i < 400; i++ {
			h, err := w.HittingTime(0, n-1, int64(n)*int64(n)*1000, r)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, float64(h))
		}
		return stats.Mean(times)
	}
	m16, m32 := mean(16), mean(32)
	ratio := m32 / m16
	if ratio < 2.8 || ratio > 6 {
		t.Errorf("hitting time ratio %v (m16=%v, m32=%v), want ≈ 4", ratio, m16, m32)
	}
}

func TestHittingTimeTimeout(t *testing.T) {
	g := graph.Path(10)
	w, err := NewWalker(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.HittingTime(0, 9, 3, rng.New(7)); err == nil {
		t.Error("timeout not reported")
	}
	h, err := w.HittingTime(4, 4, 0, rng.New(8))
	if err != nil || h != 0 {
		t.Errorf("self-hit = %v, %v", h, err)
	}
}

// TestExpanderMixingLemma verifies Lemma 9 numerically: for random
// vertex sets on expanders, |Q(S,U) − π(S)π(U)| stays below the bound.
func TestExpanderMixingLemma(t *testing.T) {
	r := rng.New(9)
	g, err := graph.RandomRegularSeeded(200, 12, r.Uint64(), graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	lam, err := spectral.Lambda(g, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		s := randomSubset(g.N(), 1+r.IntN(g.N()-1), r)
		u := randomSubset(g.N(), 1+r.IntN(g.N()-1), r)
		q := ErgodicFlow(g, s, u)
		gap := math.Abs(q - PiMass(g, s)*PiMass(g, u))
		bound := MixingLemmaBound(g, lam, s, u)
		if gap > bound+1e-9 {
			t.Fatalf("trial %d: |Q−ππ| = %v exceeds bound %v (|S|=%d |U|=%d)", trial, gap, bound, len(s), len(u))
		}
	}
}

func TestErgodicFlowSymmetry(t *testing.T) {
	// Detailed balance: Q(S,U) = Q(U,S) for any sets.
	r := rng.New(10)
	g, err := graph.ConnectedGnpSeeded(60, 0.15, r.Uint64(), 100, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		s := randomSubset(g.N(), 1+r.IntN(30), r)
		u := randomSubset(g.N(), 1+r.IntN(30), r)
		qsu, qus := ErgodicFlow(g, s, u), ErgodicFlow(g, u, s)
		if math.Abs(qsu-qus) > 1e-12 {
			t.Fatalf("Q(S,U)=%v != Q(U,S)=%v", qsu, qus)
		}
	}
}

func randomSubset(n, size int, r interface{ IntN(int) int }) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if size > n {
		size = n
	}
	return perm[:size]
}
