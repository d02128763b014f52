// Package spectral computes the spectral quantities the paper's
// theorems are parameterized by — above all λ, the second largest
// eigenvalue in absolute value of the transition matrix P of the simple
// random walk — together with closed forms for standard graph families
// and mixing-time estimates.
//
// Two engines are provided: a dense cyclic-Jacobi eigensolver used as
// an exact oracle on small graphs, and a sparse Lanczos solver with
// O(n) memory (no stored Krylov basis) that scales to the graph sizes
// used in the experiments. The random
// walk matrix P = D⁻¹A is not symmetric, but it is similar to the
// symmetric N = D^{-1/2} A D^{-1/2}, so both engines work on N and
// share P's spectrum.
package spectral

import (
	"fmt"
	"math"
)

// SymMatrix is a dense symmetric matrix stored in row-major order.
type SymMatrix struct {
	N    int
	Data []float64 // len N*N
}

// NewSymMatrix allocates an n×n zero matrix.
func NewSymMatrix(n int) *SymMatrix {
	return &SymMatrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i,j).
func (m *SymMatrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set sets elements (i,j) and (j,i).
func (m *SymMatrix) Set(i, j int, v float64) {
	m.Data[i*m.N+j] = v
	m.Data[j*m.N+i] = v
}

// Jacobi diagonalizes the symmetric matrix m with the cyclic Jacobi
// method and returns all eigenvalues in ascending order. The input is
// not modified. Accuracy is near machine precision for well-scaled
// inputs; cost is O(n³) per sweep with typically < 15 sweeps.
func Jacobi(m *SymMatrix) ([]float64, error) {
	n := m.N
	if n == 0 {
		return nil, nil
	}
	if len(m.Data) != n*n {
		return nil, fmt.Errorf("spectral: matrix data length %d != n²=%d", len(m.Data), n*n)
	}
	a := make([]float64, len(m.Data))
	copy(a, m.Data)
	at := func(i, j int) float64 { return a[i*n+j] }
	set := func(i, j int, v float64) { a[i*n+j] = v }

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * at(i, j) * at(i, j)
			}
		}
		if math.Sqrt(off) < 1e-13*float64(n) {
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				vals[i] = at(i, i)
			}
			sortFloats(vals)
			return vals, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := at(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := at(p, p), at(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation G(p,q,θ)ᵀ A G(p,q,θ).
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip, aiq := at(i, p), at(i, q)
					set(i, p, c*aip-s*aiq)
					set(p, i, at(i, p))
					set(i, q, s*aip+c*aiq)
					set(q, i, at(i, q))
				}
				set(p, p, app-t*apq)
				set(q, q, aqq+t*apq)
				set(p, q, 0)
				set(q, p, 0)
			}
		}
	}
	return nil, fmt.Errorf("spectral: Jacobi failed to converge in %d sweeps", maxSweeps)
}

func sortFloats(xs []float64) {
	// Insertion sort would be quadratic; use a simple heapsort to stay
	// dependency-light inside the hot-free oracle path.
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(xs, i, n)
	}
	for end := n - 1; end > 0; end-- {
		xs[0], xs[end] = xs[end], xs[0]
		siftDown(xs, 0, end)
	}
}

func siftDown(xs []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && xs[child+1] > xs[child] {
			child++
		}
		if xs[root] >= xs[child] {
			return
		}
		xs[root], xs[child] = xs[child], xs[root]
		root = child
	}
}
