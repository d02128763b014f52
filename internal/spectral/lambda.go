package spectral

import (
	"errors"
	"fmt"
	"math"

	"div/internal/graph"
)

// WalkMatrix returns the dense symmetrized walk matrix
// N = D^{-1/2} A D^{-1/2} of g, which shares the spectrum of the
// transition matrix P = D⁻¹A. Vertices of degree zero are rejected.
func WalkMatrix(g *graph.Graph) (*SymMatrix, error) {
	n := g.N()
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			return nil, fmt.Errorf("spectral: vertex %d has degree zero", v)
		}
	}
	m := NewSymMatrix(n)
	for v := 0; v < n; v++ {
		dv := math.Sqrt(float64(g.Degree(v)))
		for _, w := range g.Neighbors(v) {
			if int(w) < v {
				continue
			}
			dw := math.Sqrt(float64(g.Degree(int(w))))
			m.Set(v, int(w), 1/(dv*dw))
		}
	}
	return m, nil
}

// WalkSpectrum returns all eigenvalues of the walk matrix P in
// ascending order via the dense Jacobi oracle. O(n³); intended for
// n up to a few hundred.
func WalkSpectrum(g *graph.Graph) ([]float64, error) {
	m, err := WalkMatrix(g)
	if err != nil {
		return nil, err
	}
	return Jacobi(m)
}

// LambdaExact returns λ = max(|λ₂|, |λ_n|) of the walk matrix using
// the dense oracle. The graph must be connected so λ₁ = 1 is simple.
func LambdaExact(g *graph.Graph) (float64, error) {
	if !graph.IsConnected(g) {
		return 0, fmt.Errorf("spectral: graph is disconnected")
	}
	vals, err := WalkSpectrum(g)
	if err != nil {
		return 0, err
	}
	n := len(vals)
	if n < 2 {
		return 0, fmt.Errorf("spectral: need at least two vertices")
	}
	// vals ascending; λ₁ = vals[n-1] ≈ 1.
	return math.Max(math.Abs(vals[0]), math.Abs(vals[n-2])), nil
}

// ErrNotConverged is wrapped by the error Lambda and SecondEigen return
// when MaxIters applications of N pass before the stop rule holds. The
// value returned alongside it is still usable: for Lambda it is a
// lower bound on λ, for SecondEigen a lower bound on λ₂ with the Ritz
// vector of that bound.
var ErrNotConverged = errors.New("spectral: Lanczos did not converge")

// Options configures the sparse Lanczos solver behind Lambda and
// SecondEigen: where the recurrence starts and when it stops, not what
// it computes.
type Options struct {
	// MaxIters bounds the number of applications of N in one Lanczos
	// pass (default 5000). Reaching it returns the best lower bound
	// so far with an error wrapping ErrNotConverged.
	MaxIters int
	// Tol is the stall rule: stop once both extreme eigenvalues of
	// the Lanczos tridiagonal moved at most Tol·λ between two checks
	// at least ten steps apart (default 1e-10).
	Tol float64
	// Seed seeds the random start vector (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 5000
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Lambda estimates λ = max(|λ₂|, |λ_n|) of the walk matrix of a
// connected graph by Lanczos on N = D^{-1/2} A D^{-1/2} with the top
// eigenvector φ₁ ∝ √d projected out: λ is max(|θ_min|, |θ_max|) of the
// Lanczos tridiagonal T_k. Each step costs O(n + m) and memory is four
// n-vectors; no Krylov basis is stored.
//
// The result is a lower bound on λ (the extremes of T_k interlace
// inward), exact to about Tol·λ on convergence, and a deterministic
// function of (g, opts): two calls return identical bits. The
// recurrence stops early on breakdown — an exact invariant subspace,
// as on K_n, K₂ or Petersen — where T_k's extremes are already exact.
func Lambda(g *graph.Graph, opts Options) (float64, error) {
	l, err := newLanczos(g)
	if err != nil {
		return 0, err
	}
	res, err := l.run(opts.withDefaults())
	return res.lambda(), err
}

// deflate removes the phi component from x in place.
func deflate(x, phi []float64) {
	var dot float64
	for i := range x {
		dot += x[i] * phi[i]
	}
	for i := range x {
		x[i] -= dot * phi[i]
	}
}

// normalize scales x to unit 2-norm in place and returns the previous
// norm (0 if x was zero, in which case x is unchanged).
func normalize(x []float64) float64 {
	var sq float64
	for _, v := range x {
		sq += v * v
	}
	norm := math.Sqrt(sq)
	if norm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= norm
	}
	return norm
}

// MixingTimeBound returns the standard upper bound on the ε-mixing time
// of a reversible aperiodic chain: t_mix(ε) ≤ log(1/(ε·π_min))/(1-λ).
// It returns +Inf when λ ≥ 1.
func MixingTimeBound(lambda, piMin, eps float64) float64 {
	if lambda >= 1 {
		return math.Inf(1)
	}
	return math.Log(1/(eps*piMin)) / (1 - lambda)
}
