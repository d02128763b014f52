package spectral

import (
	"fmt"
	"math"

	"div/internal/graph"
	"div/internal/rng"
)

const (
	// stallWindow is the stop rule's look-back: both extremal Ritz
	// values must have moved ≤ Tol·λ since a check this many steps
	// earlier. Checks (Sturm bisections of T_k, O(k) each) run every
	// max(stallWindow, k/checkGrowth) steps, so they stay a vanishing
	// share of the O(n+m) steps even at large k.
	stallWindow = 10
	checkGrowth = 16
	// breakdownTol flags an exact invariant subspace: β_k this small
	// against ‖T_k‖ is rounding noise (K_n and K₂ reach it at step 1,
	// Petersen at step 2), and T_k's extremes are already exact.
	breakdownTol = 1e-10
)

// lanczos runs the symmetric Lanczos recurrence on
// B = (I − φφᵀ) N, N = D^{-1/2} A D^{-1/2}, where φ ∝ √d is N's top
// eigenvector (eigenvalue 1). φ is projected out after every
// application, so the Krylov space stays in φ⊥ and the tridiagonal
// T_k = tridiag(β, α, β) carries the rest of the walk spectrum.
//
// Only the current and previous Lanczos vectors are kept, never the
// basis: no reorthogonalization is done. That loses orthogonality once
// a Ritz value converges, which only duplicates converged Ritz values
// (Paige), so the extremes of T_k are unaffected and — being extremes
// of a principal submatrix of the operator's tridiagonalization —
// approach the extremes of spec(N|φ⊥) monotonically from inside.
type lanczos struct {
	g          *graph.Graph
	invSqrtDeg []float64
	phi        []float64
	q, p       []float64 // q_j, and q_{j-1} until step overwrites it
	beta       float64   // β_{j-1}
}

func newLanczos(g *graph.Graph) (*lanczos, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("spectral: need at least two vertices")
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("spectral: graph is disconnected")
	}
	l := &lanczos{
		g:          g,
		invSqrtDeg: make([]float64, n),
		phi:        make([]float64, n),
		q:          make([]float64, n),
		p:          make([]float64, n),
	}
	var norm float64
	for v := 0; v < n; v++ {
		d := float64(g.Degree(v))
		l.invSqrtDeg[v] = 1 / math.Sqrt(d)
		l.phi[v] = math.Sqrt(d)
		norm += d
	}
	norm = math.Sqrt(norm)
	for v := range l.phi {
		l.phi[v] /= norm
	}
	return l, nil
}

// start resets the recurrence to q_1: a seeded random vector with φ
// projected out, unit norm. The same seed always yields the same q_1,
// which is what lets SecondEigen replay the first pass bit for bit.
func (l *lanczos) start(seed uint64) error {
	r := rng.New(seed)
	for v := range l.q {
		l.q[v] = r.Float64() - 0.5
	}
	deflate(l.q, l.phi)
	if normalize(l.q) == 0 {
		return fmt.Errorf("spectral: degenerate start vector")
	}
	clear(l.p)
	l.beta = 0
	return nil
}

// step applies B once and advances the recurrence from q_j to q_{j+1},
// returning α_j = q_jᵀ B q_j and β_j = ‖r_j‖. On β_j = 0 the vectors
// are left unnormalized; callers stop there.
func (l *lanczos) step() (alpha, beta float64) {
	off, adj := l.g.Offsets(), l.g.Arcs()
	isd, phi, q, p := l.invSqrtDeg, l.phi, l.q, l.p
	// p ← N q − β_{j-1} q_{j-1}: p holds q_{j-1} and is read before it
	// is written, row by row. The same pass takes α_j = q_jᵀ p and the
	// φ component φᵀp (q_j ⊥ φ, so the cross term is rounding-level).
	bPrev := l.beta
	var dotPhi, dotQ float64
	for v := range p {
		var sum float64
		for _, w := range adj[off[v]:off[v+1]] {
			sum += q[w] * isd[w]
		}
		x := sum*isd[v] - bPrev*p[v]
		p[v] = x
		dotPhi += x * phi[v]
		dotQ += x * q[v]
	}
	// r = p − (φᵀp)φ − α_j q_j, β_j = ‖r‖, q_{j+1} = r/β_j.
	alpha = dotQ
	var sq float64
	for v := range p {
		x := p[v] - dotPhi*phi[v] - alpha*q[v]
		p[v] = x
		sq += x * x
	}
	beta = math.Sqrt(sq)
	if beta > 0 {
		inv := 1 / beta
		for v := range p {
			p[v] *= inv
		}
	}
	l.q, l.p = p, q
	l.beta = beta
	return alpha, beta
}

// tridiag is T_k: diagonal alpha[0..k-1], off-diagonal beta[0..k-2].
type tridiag struct {
	alpha, beta []float64
}

// krylovRun is the outcome of the first Lanczos pass: T_k and its
// extremal eigenvalue bounds thetaMin ≥ θ_min(T_k), thetaMax ≤ θ_max(T_k).
type krylovRun struct {
	t                  tridiag
	thetaMin, thetaMax float64
}

// lambda returns the λ estimate max(|θ_min|, |θ_max|) = max(θ_max, −θ_min).
func (r krylovRun) lambda() float64 { return math.Max(r.thetaMax, -r.thetaMin) }

// run performs the first pass from opts.Seed (opts already defaulted):
// at most opts.MaxIters applications of B, stopping on breakdown or
// when both extremes of T_k moved ≤ Tol·λ since the previous check.
// Reaching MaxIters first returns the run so far (its extremes are
// still lower bounds) with an error wrapping ErrNotConverged.
func (l *lanczos) run(opts Options) (krylovRun, error) {
	if err := l.start(opts.Seed); err != nil {
		return krylovRun{}, err
	}
	var (
		res   krylovRun
		tnorm float64 // Gershgorin bound on ‖T_k‖
		last  int     // step of the latest check; res holds its extremes
	)
	for k := 1; k <= opts.MaxIters; k++ {
		alpha, beta := l.step()
		res.t.alpha = append(res.t.alpha, alpha)
		prev := 0.0
		if k > 1 {
			prev = res.t.beta[k-2]
		}
		tnorm = math.Max(tnorm, math.Abs(alpha)+prev+beta)
		if beta <= breakdownTol*tnorm {
			res.thetaMin, res.thetaMax = res.t.extremes()
			return res, nil
		}
		res.t.beta = append(res.t.beta, beta)
		if k-last < max(stallWindow, k/checkGrowth) {
			continue
		}
		lo, hi := res.t.extremes()
		moved := math.Max(math.Abs(lo-res.thetaMin), math.Abs(hi-res.thetaMax))
		res.thetaMin, res.thetaMax = lo, hi
		if last > 0 && moved <= opts.Tol*res.lambda() {
			res.t.beta = res.t.beta[:k-1]
			return res, nil
		}
		last = k
	}
	res.t.beta = res.t.beta[:len(res.t.alpha)-1]
	if last != len(res.t.alpha) {
		res.thetaMin, res.thetaMax = res.t.extremes()
	}
	return res, fmt.Errorf("spectral: λ ≥ %.12g after %d applications of N (Tol %g): %w",
		res.lambda(), opts.MaxIters, opts.Tol, ErrNotConverged)
}

// pivmin replaces an exactly zero Sturm pivot.
const pivmin = 1e-300

// count2 returns the number of eigenvalues of T below x and below y:
// two Sturm sequences (the signs of the LDLᵀ pivots of T − xI) run in
// one loop so their division chains overlap.
func (t *tridiag) count2(x, y float64) (cx, cy int) {
	dx, dy := 1.0, 1.0
	b2 := 0.0
	for i, a := range t.alpha {
		if i > 0 {
			b := t.beta[i-1]
			b2 = b * b
		}
		dx = a - x - b2/dx
		dy = a - y - b2/dy
		if dx == 0 {
			dx = -pivmin
		}
		if dy == 0 {
			dy = -pivmin
		}
		if dx < 0 {
			cx++
		}
		if dy < 0 {
			cy++
		}
	}
	return cx, cy
}

// extremes bisects Sturm counts for T's smallest and largest
// eigenvalues to rounding level and returns lo ≥ θ_min and hi ≤ θ_max
// (the inner end of each final bracket), so max(hi, −lo) never
// overstates max|θ|.
func (t *tridiag) extremes() (lo, hi float64) {
	k := len(t.alpha)
	// Gershgorin interval, widened so both ends are strict bounds.
	gl, gu := math.Inf(1), math.Inf(-1)
	for i, a := range t.alpha {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.beta[i-1])
		}
		if i < k-1 {
			r += math.Abs(t.beta[i])
		}
		gl = math.Min(gl, a-r)
		gu = math.Max(gu, a+r)
	}
	scale := math.Max(math.Abs(gl), math.Abs(gu))
	atol := 4 * 0x1p-52 * scale
	gl -= atol + pivmin
	gu += atol + pivmin
	// Invariants: count(minLo) = 0 < 1 ≤ count(minHi);
	// count(maxLo) < k = count(maxHi).
	minLo, minHi := gl, gu
	maxLo, maxHi := gl, gu
	for minHi-minLo > atol || maxHi-maxLo > atol {
		x, y := (minLo+minHi)/2, (maxLo+maxHi)/2
		if x == minLo || x == minHi || y == maxLo || y == maxHi {
			break
		}
		cx, cy := t.count2(x, y)
		if cx >= 1 {
			minHi = x
		} else {
			minLo = x
		}
		if cy == k {
			maxHi = y
		} else {
			maxLo = y
		}
	}
	return minHi, maxLo
}

// ritzVector returns the unit eigenvector s of T for its eigenvalue
// nearest theta, from the twisted factorization of T − θI: forward
// pivots D⁺ and backward pivots D⁻ meet at the index r where
// γ_r = D⁺_r + D⁻_r − (α_r − θ) is smallest, and s is propagated
// outwards from s_r = 1. One pass, no iteration, stable for an
// eigenvalue bisected to rounding level.
func (t *tridiag) ritzVector(theta float64) []float64 {
	k := len(t.alpha)
	s := make([]float64, k)
	if k == 1 {
		s[0] = 1
		return s
	}
	fwd := make([]float64, k) // D⁺
	bwd := make([]float64, k) // D⁻
	nz := func(d float64) float64 {
		if d == 0 {
			return -pivmin
		}
		return d
	}
	fwd[0] = nz(t.alpha[0] - theta)
	for i := 1; i < k; i++ {
		b := t.beta[i-1]
		fwd[i] = nz(t.alpha[i] - theta - b*b/fwd[i-1])
	}
	bwd[k-1] = nz(t.alpha[k-1] - theta)
	for i := k - 2; i >= 0; i-- {
		b := t.beta[i]
		bwd[i] = nz(t.alpha[i] - theta - b*b/bwd[i+1])
	}
	r, best := 0, math.Inf(1)
	for i := 0; i < k; i++ {
		if g := math.Abs(fwd[i] + bwd[i] - (t.alpha[i] - theta)); g < best {
			r, best = i, g
		}
	}
	s[r] = 1
	for i := r - 1; i >= 0; i-- {
		s[i] = -t.beta[i] / fwd[i] * s[i+1]
	}
	for i := r + 1; i < k; i++ {
		s[i] = -t.beta[i-1] / bwd[i] * s[i-1]
	}
	var sq float64
	for _, x := range s {
		sq += x * x
	}
	inv := 1 / math.Sqrt(sq)
	for i := range s {
		s[i] *= inv
	}
	return s
}
