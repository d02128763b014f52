package spectral

import (
	"errors"

	"div/internal/graph"
)

// SecondEigen computes the SIGNED second-largest eigenvalue λ₂ of the
// walk matrix P together with its eigenvector (in the vertex basis of
// P, i.e. the Fiedler-style vector used for spectral sweep cuts).
//
// λ₂ is θ_max of the same Lanczos tridiagonal T_k that Lambda builds
// (same start vector, same stop rule), so it converges exactly when
// Lambda does and is a lower bound on λ₂. The eigenvector is the Ritz
// vector Σ_j s_j q_j for T_k's top eigenvector s: a second pass
// replays the recurrence from the same start vector and accumulates
// the sum, so memory stays O(n) with no stored basis, at the price of
// k more applications of N. On ErrNotConverged both results are
// returned with the error.
func SecondEigen(g *graph.Graph, opts Options) (lambda2 float64, vec []float64, err error) {
	opts = opts.withDefaults()
	l, err := newLanczos(g)
	if err != nil {
		return 0, nil, err
	}
	res, runErr := l.run(opts)
	if runErr != nil && !errors.Is(runErr, ErrNotConverged) {
		return 0, nil, runErr
	}
	s := res.t.ritzVector(res.thetaMax)
	if err := l.start(opts.Seed); err != nil {
		return 0, nil, err
	}
	vec = make([]float64, g.N())
	for j, sj := range s {
		if j > 0 {
			l.step()
		}
		for v, x := range l.q {
			vec[v] += sj * x
		}
	}
	normalize(vec)
	// Convert the eigenvector of N back to the P basis: if N u = λ u
	// then P (D^{-1/2}u) = λ (D^{-1/2}u).
	for v := range vec {
		vec[v] *= l.invSqrtDeg[v]
	}
	return res.thetaMax, vec, runErr
}
