package exp

import (
	"fmt"
	"math"

	"div/internal/graph"
	"div/internal/rng"
	"div/internal/sim"
	"div/internal/spectral"
)

// E11Eigenvalues reproduces the paper's "Graphs with small second
// eigenvalue" section: measured λ against the closed forms and w.h.p.
// bounds it quotes —
//
//	K_n:              λ = 1/(n-1)                      (exact)
//	random d-regular: λ = O(1/√d), ≲ 2√(d-1)/d         ([9, 23])
//	G(n,p):           λ ≤ (1+o(1))·2/√(np)             ([8])
//
// plus the non-expanders the paper contrasts with (path, cycle, torus)
// and the resulting λk feasibility and mixing-time bounds.
func E11Eigenvalues(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{ID: "E11", Name: "second eigenvalues of example families"}
	gs := newGraphs()
	defer gs.Release()
	n := p.pick(256, 1024)

	type entry struct {
		g         *graph.Graph
		reference float64
		kind      string // "exact" or "bound"
	}
	var entries []entry
	add := func(g *graph.Graph, ref float64, kind string) {
		entries = append(entries, entry{g, ref, kind})
	}

	add(gs.Complete(n), spectral.LambdaComplete(n), "exact")
	rrSeed := func(d int) uint64 { return rng.DeriveSeed(p.Seed, 0xe1100+uint64(d)) }
	for _, d := range []int{4, 16, 64} {
		g, err := gs.RandomRegular(n, d, rrSeed(d))
		if err != nil {
			return nil, err
		}
		add(g, spectral.LambdaRandomRegularBound(d), "bound")
	}
	for i, np := range []float64{16, 64} {
		g, err := gs.ConnectedGnp(n, np/float64(n), rng.DeriveSeed(p.Seed, 0xe1180+uint64(i)))
		if err != nil {
			return nil, err
		}
		add(g, spectral.LambdaGnpBound(n, np/float64(n)), "bound")
	}
	oddN := n + 1 - n%2
	add(gs.Cycle(oddN), spectral.LambdaCycle(oddN), "exact")
	side := int(math.Sqrt(float64(n)))
	if side%2 == 0 {
		side++ // odd sides keep the torus non-bipartite
	}
	add(gs.Torus(side, side), 1, "non-expander")
	ws, err := gs.WattsStrogatz(n, 8, 0.2, rng.DeriveSeed(p.Seed, 0xe11c0))
	if err != nil {
		return nil, err
	}
	add(ws, math.NaN(), "measured only")

	tbl := sim.NewTable(
		fmt.Sprintf("E11: absolute second eigenvalue λ of the walk matrix (n ≈ %d)", n),
		"graph", "lambda measured", "reference", "kind", "max k with λk ≤ 0.5", "t_mix bound (ε=1/4)",
	)
	for _, e := range entries {
		lam, err := gs.Lambda(e.g, spectral.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11: λ(%v): %w", e.g, err)
		}
		piMin := float64(e.g.MinDegree()) / float64(e.g.DegreeSum())
		maxK := "∞"
		if lam > 0 {
			maxK = fmt.Sprintf("%.0f", math.Floor(0.5/lam))
		}
		tbl.AddRow(e.g.Name(), lam, e.reference, e.kind, maxK, spectral.MixingTimeBound(lam, piMin, 0.25))

		switch e.kind {
		case "exact":
			rep.check(math.Abs(lam-e.reference) < 1e-9,
				fmt.Sprintf("closed form: %s", e.g.Name()),
				"measured λ = %.8f vs exact %.8f", lam, e.reference)
		case "bound":
			rep.check(lam <= 1.25*e.reference,
				fmt.Sprintf("w.h.p. bound: %s", e.g.Name()),
				"measured λ = %.4f vs bound %.4f (allow 25%% finite-n slack)", lam, e.reference)
		}
	}
	rep.Tables = append(rep.Tables, tbl)

	// Scaling of λ with d for random regular graphs: fit λ ∝ d^e,
	// expect e ≈ -1/2. The same derived seeds and Options as the table
	// loop make these graph-cache and λ-memo hits, not fresh work.
	ds := []float64{4, 16, 64}
	lams := make([]float64, len(ds))
	for i, d := range ds {
		g, err := gs.RandomRegular(n, int(d), rrSeed(int(d)))
		if err != nil {
			return nil, err
		}
		lams[i], err = gs.Lambda(g, spectral.Options{})
		if err != nil {
			return nil, err
		}
	}
	num := math.Log(lams[len(lams)-1]/lams[0]) / math.Log(ds[len(ds)-1]/ds[0])
	rep.check(num > -0.75 && num < -0.3,
		"λ(random d-regular) scales like d^{-1/2}",
		"fitted exponent %.2f across d ∈ {4,16,64} (theory: -0.5)", num)
	return rep, nil
}
