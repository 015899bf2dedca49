// Package oracle holds the dense reference solvers that tests compare the
// production non-negative least-squares solvers against: a Householder QR
// least-squares solve and the textbook Lawson-Hanson NNLS over an explicit
// matrix. They are slow, allocate freely and share no code with
// internal/mat's Gram-based solvers, which is what makes them a useful
// oracle. Only tests import this package; it imports nothing from the
// module, so internal/mat's own tests can use it without an import cycle.
package oracle

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system is (numerically) singular.
var ErrSingular = errors.New("oracle: matrix is singular to working precision")

// Matrix is the read-only view of a dense matrix the solvers take;
// *mat.Dense satisfies it.
type Matrix interface {
	Rows() int
	Cols() int
	At(i, j int) float64
}

// dense is a row-major copy the solvers work on in place.
type dense struct {
	rows, cols int
	data       []float64
}

func newDense(r, c int) *dense { return &dense{rows: r, cols: c, data: make([]float64, r*c)} }

func copyOf(a Matrix) *dense {
	d := newDense(a.Rows(), a.Cols())
	for i := 0; i < d.rows; i++ {
		for j := 0; j < d.cols; j++ {
			d.set(i, j, a.At(i, j))
		}
	}
	return d
}

func (m *dense) at(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *dense) set(i, j int, v float64) { m.data[i*m.cols+j] = v }

func (m *dense) mulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// SolveLSQ solves the linear least-squares problem min ||A x - b||_2 using a
// Householder QR factorization. A must have at least as many rows as columns
// and full column rank; otherwise ErrSingular is returned.
func SolveLSQ(a Matrix, b []float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("oracle: SolveLSQ dimension mismatch %dx%d vs %d",
			a.Rows(), a.Cols(), len(b))
	}
	if a.Rows() < a.Cols() {
		return nil, fmt.Errorf("oracle: SolveLSQ underdetermined %dx%d", a.Rows(), a.Cols())
	}
	return solveLSQ(copyOf(a), b)
}

// solveLSQ is SolveLSQ on a copy it may overwrite.
func solveLSQ(r *dense, b []float64) ([]float64, error) {
	qtb := make([]float64, len(b))
	copy(qtb, b)

	m, n := r.rows, r.cols
	for k := 0; k < n; k++ {
		// Build the Householder reflector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.at(i, k))
		}
		if norm == 0 {
			return nil, ErrSingular
		}
		if r.at(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm*e1 (stored in place), normalized so v[k] = 1.
		v := make([]float64, m-k)
		v[0] = r.at(k, k) - norm
		for i := k + 1; i < m; i++ {
			v[i-k] = r.at(i, k)
		}
		vk := v[0]
		if vk == 0 {
			return nil, ErrSingular
		}
		for i := range v {
			v[i] /= vk
		}
		beta := -vk / norm // = 2 / (v^T v) with this normalization

		// Apply the reflector to the remaining columns of R.
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i-k] * r.at(i, j)
			}
			s *= beta
			for i := k; i < m; i++ {
				r.set(i, j, r.at(i, j)-s*v[i-k])
			}
		}
		// Apply the reflector to b.
		var s float64
		for i := k; i < m; i++ {
			s += v[i-k] * qtb[i]
		}
		s *= beta
		for i := k; i < m; i++ {
			qtb[i] -= s * v[i-k]
		}
	}

	// Back substitution on the upper-triangular R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= r.at(i, j) * x[j]
		}
		d := r.at(i, i)
		if math.Abs(d) < 1e-13*float64(m) {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// NNLS solves the non-negative least-squares problem
//
//	min ||A x - b||_2  subject to  x >= 0
//
// with the Lawson-Hanson active-set algorithm, solving each passive-set
// subproblem by QR from scratch.
func NNLS(m Matrix, b []float64) ([]float64, error) {
	if m.Rows() != len(b) {
		return nil, fmt.Errorf("oracle: NNLS dimension mismatch %dx%d vs %d",
			m.Rows(), m.Cols(), len(b))
	}
	a := copyOf(m)
	n := a.cols
	x := make([]float64, n)
	passive := make([]bool, n) // true when variable is in the passive (free) set

	residual := make([]float64, len(b))
	copy(residual, b)

	// Gradient w = A^T residual.
	grad := func() []float64 {
		w := make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < a.rows; i++ {
				s += a.at(i, j) * residual[i]
			}
			w[j] = s
		}
		return w
	}

	const tol = 1e-10
	maxOuter := 3 * n
	for outer := 0; outer < maxOuter; outer++ {
		w := grad()
		// Pick the most positive gradient among active (clamped) variables.
		best, bestVal := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestVal {
				best, bestVal = j, w[j]
			}
		}
		if best < 0 {
			break // KKT conditions satisfied
		}
		passive[best] = true

		// Inner loop: solve the unconstrained LSQ on the passive set and
		// move x toward it, clamping variables that would go negative.
		for inner := 0; inner < maxOuter; inner++ {
			idx := passiveIndices(passive)
			z, err := solveSubLSQ(a, b, idx)
			if err != nil {
				// Degenerate column set: drop the newest variable and stop.
				passive[best] = false
				break
			}
			if allPositive(z, tol) {
				for k, j := range idx {
					x[j] = z[k]
				}
				break
			}
			// Line search toward z: alpha = min over offending variables.
			alpha := math.Inf(1)
			for k, j := range idx {
				if z[k] <= tol {
					denom := x[j] - z[k]
					if denom > 0 {
						alpha = math.Min(alpha, x[j]/denom)
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for k, j := range idx {
				x[j] += alpha * (z[k] - x[j])
				if x[j] <= tol {
					x[j] = 0
					passive[j] = false
				}
			}
		}

		// Refresh the residual.
		ax := a.mulVec(x)
		for i := range residual {
			residual[i] = b[i] - ax[i]
		}
	}
	return x, nil
}

func passiveIndices(passive []bool) []int {
	idx := make([]int, 0, len(passive))
	for j, p := range passive {
		if p {
			idx = append(idx, j)
		}
	}
	return idx
}

func allPositive(v []float64, tol float64) bool {
	for _, x := range v {
		if x <= tol {
			return false
		}
	}
	return true
}

// solveSubLSQ solves min ||A[:, idx] z - b|| restricted to the given columns.
func solveSubLSQ(a *dense, b []float64, idx []int) ([]float64, error) {
	if len(idx) == 0 {
		return nil, errors.New("oracle: empty passive set")
	}
	sub := newDense(a.rows, len(idx))
	for i := 0; i < a.rows; i++ {
		for k, j := range idx {
			sub.set(i, k, a.at(i, j))
		}
	}
	if sub.rows < sub.cols {
		return nil, fmt.Errorf("oracle: SolveLSQ underdetermined %dx%d", sub.rows, sub.cols)
	}
	return solveLSQ(sub, b)
}
