// Sampling-law battery for the random builders: each family is checked
// against a closed form, not against another implementation — the
// G(n,p) degree and edge-count laws, the spectral concentration of
// random-regular and connected G(n,p) graphs, and the
// degree-proportional attachment law of Barabási–Albert. (The
// Watts–Strogatz rewiring and the random-regular pairing are pinned by
// exact stream replays in build_test.go.) The χ² checks run at
// α = 0.001.
//
// External test package: the λ checks need internal/spectral, which
// imports graph — an internal test would cycle.
package graph_test

import (
	"math"
	"testing"

	"div/internal/graph"
	"div/internal/spectral"
	"div/internal/stats"
)

// chi2Crit001 returns the α = 0.001 critical value of χ²(df), exact
// for the small dfs and Wilson–Hilferty for the rest (accurate to well
// under the margins these tests run at).
func chi2Crit001(df int) float64 {
	switch df {
	case 1:
		return 10.83
	case 2:
		return 13.82
	}
	const z = 3.0902 // z_{0.001}
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// mergeCells merges neighbouring categories of observed and expected
// counts (left to right, the remainder into the last cell) until each
// cell expects at least 10 — the house pattern of the engine
// equivalence suites — for stats.ChiSquare.
func mergeCells(obs []int64, exp []float64) ([]int64, []float64) {
	var mo []int64
	var me []float64
	var co int64
	var ce float64
	for i := range obs {
		co += obs[i]
		ce += exp[i]
		if ce >= 10 {
			mo, me = append(mo, co), append(me, ce)
			co, ce = 0, 0
		}
	}
	if len(mo) > 0 {
		mo[len(mo)-1] += co
		me[len(me)-1] += ce
	}
	return mo, me
}

// binomialPMF returns P[Binomial(n, p) = k].
func binomialPMF(n, k int, p float64) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
	return math.Exp(lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// TestSeededLawEquivalenceDegrees checks the seeded builder's degree
// law against its closed form: gnp(600,0.02) pools the degrees of R
// samples of G(n,p) and tests them against Binomial(n−1, p), and the
// total edge count against Binomial(R·n(n−1)/2, p). (Barabási–Albert
// and Watts–Strogatz have their own law tests: the attachment law below
// and the rewiring replay in build_test.go.)
func TestSeededLawEquivalenceDegrees(t *testing.T) {
	t.Run("gnp(600,0.02)", func(t *testing.T) {
		const n, p, R = 600, 0.02, 24
		obs := make([]int64, n)
		var edges int
		for r := 0; r < R; r++ {
			g, err := graph.GnpSeeded(n, p, uint64(1000+r), graph.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				obs[g.Degree(v)]++
			}
			edges += g.M()
		}
		exp := make([]float64, n)
		for k := range exp {
			exp[k] = R * n * binomialPMF(n-1, k, p)
		}
		stat, df, err := stats.ChiSquare(mergeCells(obs, exp))
		if err != nil || df < 1 {
			t.Fatalf("degree χ²: df=%d err=%v", df, err)
		}
		if stat > chi2Crit001(df) {
			t.Errorf("degree χ²(%d) = %.2f > %.2f (α=0.001): degrees are not Binomial(%d, %g)", df, stat, chi2Crit001(df), n-1, p)
		}
		const pairs = R * n * (n - 1) / 2
		if z := stats.BinomialZ(edges, pairs, p); math.Abs(z) > 3.29 {
			t.Errorf("%d edges over %d samples: z = %.2f against Binomial(%d, %g) (|z| ≤ 3.29 at α=0.001)", edges, R, z, pairs, p)
		}
	})
}

// TestSeededLawEquivalenceLambda checks each family's λ against its
// closed-form law: on every sample λ must sit where theory puts it —
// Friedman's 2√(d−1)/d for random d-regular graphs (which must also be
// simple and connected), and 2√((1−p)/(np)) for connected G(n,p). On
// the test's 20 seeds rr(400,6) reads λ in 0.728–0.746 (Friedman
// 0.745) and gnp(400,0.04) in 0.464–0.489 (0.490).
func TestSeededLawEquivalenceLambda(t *testing.T) {
	const R = 20
	families := []struct {
		name   string
		want   float64
		tol    float64
		degree int // every vertex's degree, 0 when irregular
		build  func(seed uint64) (*graph.Graph, error)
	}{
		{
			"gnp(400,0.04)", 2 * math.Sqrt((1-0.04)/(400*0.04)), 0.04, 0,
			func(seed uint64) (*graph.Graph, error) {
				return graph.ConnectedGnpSeeded(400, 0.04, seed, 200, graph.BuildOpts{})
			},
		},
		{
			"rr(400,6)", spectral.LambdaRandomRegularBound(6), 0.03, 6,
			func(seed uint64) (*graph.Graph, error) {
				return graph.RandomRegularSeeded(400, 6, seed, graph.BuildOpts{})
			},
		},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for r := 0; r < R; r++ {
				seed := uint64(2000 + r)
				g, err := fam.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("seed %d: not simple: %v", seed, err)
				}
				if fam.degree > 0 && (!g.IsRegular() || g.MaxDegree() != fam.degree) {
					t.Fatalf("seed %d: not %d-regular", seed, fam.degree)
				}
				if !graph.IsConnected(g) {
					t.Fatalf("seed %d: disconnected", seed)
				}
				lam, err := spectral.Lambda(g, spectral.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(lam-fam.want) > fam.tol {
					t.Errorf("seed %d: λ = %.4f, want %.4f ± %.2f", seed, lam, fam.want, fam.tol)
				}
			}
		})
	}
}

// TestBarabasiAlbertSeededAttachmentLaw pins preferential attachment.
// Structure: C(m+1, 2) seed-clique edges plus m per arrival, and
// minimum degree m. Law: in BA(n, 1) the last arrival's single pick is
// distributed as deg(u)/Σdeg on the graph induced by the earlier
// vertices — exactly the state it attached to — so pooling R seeds,
// the picks per degree class must match the summed class masses (χ²).
func TestBarabasiAlbertSeededAttachmentLaw(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{50, 1}, {300, 2}, {300, 3}, {120, 5}} {
		g, err := graph.BarabasiAlbertSeeded(tc.n, tc.m, 7, graph.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.m*(tc.m+1)/2 + tc.m*(tc.n-tc.m-1); g.M() != want {
			t.Errorf("BA(%d,%d) has %d edges, want %d", tc.n, tc.m, g.M(), want)
		}
		if g.MinDegree() != tc.m {
			t.Errorf("BA(%d,%d) min degree %d, want %d", tc.n, tc.m, g.MinDegree(), tc.m)
		}
	}

	const n, R = 100, 2000
	const maxClass = n // degree classes 1..n-1 before the last arrival
	obs := make([]int64, maxClass)
	exp := make([]float64, maxClass)
	for r := 0; r < R; r++ {
		g, err := graph.BarabasiAlbertSeeded(n, 1, uint64(3000+r), graph.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		last := n - 1
		if g.Degree(last) != 1 {
			t.Fatalf("seed %d: last arrival has degree %d", 3000+r, g.Degree(last))
		}
		pick := g.Neighbors(last)[0]
		// Degrees in the graph the last arrival attached to: the pick
		// loses the last edge, every other earlier vertex keeps its own.
		total := float64(2 * (g.M() - 1))
		for u := 0; u < last; u++ {
			d := g.Degree(u)
			if u == int(pick) {
				d--
			}
			exp[d] += float64(d) / total
		}
		obs[g.Degree(int(pick))-1]++
	}
	stat, df, err := stats.ChiSquare(mergeCells(obs, exp))
	if err != nil || df < 1 {
		t.Fatalf("attachment χ²: df=%d err=%v", df, err)
	}
	if stat > chi2Crit001(df) {
		t.Errorf("last-arrival pick by degree class: χ²(%d) = %.2f > %.2f (α=0.001): attachment is not ∝ degree", df, stat, chi2Crit001(df))
	}
}
