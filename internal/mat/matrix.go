// Package mat implements the dense linear-algebra kernels the
// fingerprinting pipeline needs: a small row-major matrix type with a
// Cholesky solver, the Gram-based non-negative least-squares solvers of
// the position search (Lawson-Hanson active set, nnls_ws.go and
// nnls_border.go), and the Levenberg-Marquardt nonlinear least-squares
// solver the paper cites ([15] Madsen, Nielsen, Tingleff).
//
// The package is self-contained (standard library only) because the Go
// scientific-computing ecosystem is intentionally not a dependency of this
// repository.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a linear system is (numerically) singular.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r x c zero matrix. It panics when r or c is
// non-positive, because a dimensionless matrix is always a programming error
// in this codebase.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m * n.
func (m *Dense) Mul(n *Dense) (*Dense, error) {
	if m.cols != n.rows {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d * %dx%d",
			m.rows, m.cols, n.rows, n.cols)
	}
	out := NewDense(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			nk := n.data[k*n.cols : (k+1)*n.cols]
			for j, nv := range nk {
				oi[j] += mv * nv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m * x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("mat: MulVec dimension mismatch %dx%d * %d",
			m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// SolveCholesky solves the symmetric positive-definite system A x = b via a
// Cholesky factorization. It returns ErrSingular when A is not (numerically)
// positive definite.
func SolveCholesky(a *Dense, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: SolveCholesky requires square matrix, got %dx%d", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: SolveCholesky dimension mismatch %dx%d vs %d", a.rows, a.cols, len(b))
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dot returns the inner product of a and b. It panics on length mismatch.
// Four independent accumulators over the leading multiple of four break
// the floating-point add dependency chain; the remaining up-to-three terms
// fold into the first lane, and the lanes combine as (s0+s1)+(s2+s3). The
// summation order is a fixed function of the length, so equal inputs give
// bit-identical sums.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	n4 := len(a) &^ 3
	b = b[:len(a)]
	var s [4]float64
	if useAVX {
		s = dotLanesAVX(a[:n4], b[:n4])
	} else {
		s = dotLanesGo(a[:n4], b[:n4])
	}
	for i := n4; i < len(a); i++ {
		s[0] += a[i] * b[i]
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// Norm2 returns the Euclidean norm of v.
//
// The fast path is the plain square root of Dot(v, v). It is accurate to a
// few ulp whenever that sum lies in (1e-280, 1e280): no term can have
// overflowed, and a square that underflows loses at most 5e-324, some 28
// orders of magnitude under one ulp of the sum. Outside that range —
// overflow to +Inf, a sum dominated by underflowed squares, an all-zero
// vector, an infinite or NaN entry — it falls back to the LAPACK-style
// scaled accumulation and returns that result unchanged.
func Norm2(v []float64) float64 {
	if ssq := Dot(v, v); unscaledSumSq(ssq) {
		return math.Sqrt(ssq)
	}
	return norm2Scaled(v)
}

// unscaledSumSq reports whether Norm2 answers a sum of squares with its
// plain square root.
func unscaledSumSq(ssq float64) bool { return ssq > 1e-280 && ssq < 1e280 }

// norm2Scaled is the overflow- and underflow-resistant scaled form of
// Norm2: one division per non-zero entry.
func norm2Scaled(v []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Sub returns a - b elementwise. It panics on length mismatch.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// AddScaled returns a + k*b elementwise. It panics on length mismatch.
func AddScaled(a []float64, k float64, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: AddScaled length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + k*b[i]
	}
	return out
}
