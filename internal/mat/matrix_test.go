package mat

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fluxtrack/internal/oracle"
	"fluxtrack/internal/rng"
)

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: FromRows requires a non-empty ragged-free slice")
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: row %d has length %d, want %d", i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(0, 3) did not panic")
		}
	}()
	NewDense(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("ragged FromRows must error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty FromRows must error")
	}
}

func TestRowColClone(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	row[0] = 99 // must not alias
	if m.At(1, 0) != 4 {
		t.Error("Row returned an aliasing slice")
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Errorf("Col(2) = %v, want [3 6]", col)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", mt.Rows(), mt.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul at (%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewDense(3, 3)); err == nil {
		t.Error("dimension-mismatched Mul must error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v, want [-2 -2]", got)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("dimension-mismatched MulVec must error")
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
	s := Sub([]float64{5, 5}, []float64{2, 3})
	if s[0] != 3 || s[1] != 2 {
		t.Errorf("Sub = %v", s)
	}
	a := AddScaled([]float64{1, 1}, 2, []float64{3, 4})
	if a[0] != 7 || a[1] != 9 {
		t.Errorf("AddScaled = %v", a)
	}
}

// TestNorm2OverflowResistance: wherever the unscaled sum of squares leaves
// Norm2's fast-path range — overflow, underflow, both at once, an infinite
// or NaN entry — Norm2 must return exactly what the scaled form does, and
// the scaled form must still get the magnitudes right.
func TestNorm2OverflowResistance(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		v    []float64
		want float64 // NaN: want NaN
	}{
		{"overflow", []float64{1e200, 1e200}, 1e200 * math.Sqrt2},
		{"overflow-long", []float64{1e200, -1e200, 1e200, -1e200, 1e200}, 1e200 * math.Sqrt(5)},
		{"underflow", []float64{1e-200, 1e-200}, 1e-200 * math.Sqrt2},
		{"underflow-long", []float64{-1e-200, 1e-200, 1e-200, 1e-200, 1e-200, 1e-200}, 1e-200 * math.Sqrt(6)},
		{"mixed", []float64{1e-200, 1e200, -1e-200, 1e200}, 1e200 * math.Sqrt2},
		{"subnormal", []float64{5e-324, 5e-324, 0}, 5e-324 * math.Sqrt2},
		{"subnormal-squares", []float64{3e-160, 0, -4e-160}, 5e-160},
		{"zeros", []float64{0, 0, 0, 0, 0}, 0},
		{"plus-inf", []float64{1, inf, 2}, inf},
		{"minus-inf", []float64{-inf, 1e-200, 3, 4, 5}, inf},
		{"two-inf", []float64{inf, -inf}, nan},
		{"nan", []float64{1, 2, nan, 4, 5}, nan},
		{"nan-and-inf", []float64{inf, nan}, nan},
	} {
		got, scaled := Norm2(tc.v), norm2Scaled(tc.v)
		if math.Float64bits(got) != math.Float64bits(scaled) && !(math.IsNaN(got) && math.IsNaN(scaled)) {
			t.Errorf("%s: Norm2 = %v, scaled form = %v", tc.name, got, scaled)
		}
		switch {
		case math.IsNaN(tc.want):
			if !math.IsNaN(got) {
				t.Errorf("%s: Norm2 = %v, want NaN", tc.name, got)
			}
		case math.IsInf(tc.want, 0) || tc.want == 0:
			if got != tc.want {
				t.Errorf("%s: Norm2 = %v, want %v", tc.name, got, tc.want)
			}
		case math.Abs(got-tc.want)/tc.want > 1e-12:
			t.Errorf("%s: Norm2 = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDotRemainder covers every remainder length of Dot's four-lane loop.
// Small integers keep every partial sum exact, so any summation order must
// return the closed-form value.
func TestDotRemainder(t *testing.T) {
	for n := 0; n <= 9; n++ {
		a, b := make([]float64, n), make([]float64, n)
		want := 0.0
		for i := range a {
			a[i], b[i] = float64(i+1), float64(2*i-5)
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Errorf("n=%d: Dot = %v, want %v", n, got, want)
		}
	}
}

func TestSolveLSQExact(t *testing.T) {
	// Square nonsingular system: exact solve.
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := oracle.SolveLSQ(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLSQOverdetermined(t *testing.T) {
	// Fit y = 2t + 1 through noisy-free samples: exact recovery expected.
	a, _ := FromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	b := []float64{1, 3, 5, 7}
	x, err := oracle.SolveLSQ(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-1) > 1e-10 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveLSQResidualOrthogonality(t *testing.T) {
	// Property: at the LSQ optimum, A^T (Ax - b) = 0.
	src := rng.New(99)
	for trial := 0; trial < 25; trial++ {
		m, n := 8, 3
		a := NewDense(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, src.Norm())
			}
			b[i] = src.Norm()
		}
		x, err := oracle.SolveLSQ(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax, _ := a.MulVec(x)
		res := Sub(ax, b)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a.At(i, j) * res[i]
			}
			if math.Abs(s) > 1e-8 {
				t.Fatalf("trial %d: residual not orthogonal to column %d: %v", trial, j, s)
			}
		}
	}
}

func TestSolveLSQSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	if _, err := oracle.SolveLSQ(a, []float64{1, 2, 3}); !errors.Is(err, oracle.ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLSQShapeErrors(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := oracle.SolveLSQ(a, []float64{1, 2}); err == nil {
		t.Error("underdetermined SolveLSQ must error")
	}
	if _, err := oracle.SolveLSQ(NewDense(3, 2), []float64{1, 2}); err == nil {
		t.Error("mismatched b length must error")
	}
}

func TestSolveCholesky(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := SolveCholesky(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Verify by substitution.
	ax, _ := a.MulVec(x)
	if math.Abs(ax[0]-10) > 1e-10 || math.Abs(ax[1]-8) > 1e-10 {
		t.Errorf("A x = %v, want [10 8]", ax)
	}
}

func TestSolveCholeskyNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := SolveCholesky(a, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestNNLSMatchesUnconstrainedWhenInterior(t *testing.T) {
	// If the unconstrained solution is strictly positive, NNLS must match it.
	a, _ := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := []float64{1, 2, 3.1}
	want, err := oracle.SolveLSQ(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("NNLS = %v, want %v", got, want)
			break
		}
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Unconstrained optimum has a negative coefficient; NNLS clamps it to 0.
	a, _ := FromRows([][]float64{{1, 1}, {1, 1.0001}, {1, 0.9999}})
	b := []float64{-1, -1, -1} // best fit is x = (-1, 0), so NNLS should give 0s
	x, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v < 0 {
			t.Errorf("NNLS produced negative x[%d] = %v", i, v)
		}
		if v > 1e-8 {
			t.Errorf("NNLS x[%d] = %v, want 0", i, v)
		}
	}
}

func TestNNLSRecoverTrueNonNegative(t *testing.T) {
	// Property: for random A and x* >= 0 with b = A x*, NNLS recovers a
	// solution with residual (near) zero.
	src := rng.New(4242)
	for trial := 0; trial < 30; trial++ {
		m, n := 12, 4
		a := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, math.Abs(src.Norm()))
			}
		}
		xTrue := make([]float64, n)
		for j := range xTrue {
			if src.Float64() < 0.5 {
				xTrue[j] = src.Uniform(0.1, 3)
			}
		}
		b, _ := a.MulVec(xTrue)
		x, err := oracle.NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax, _ := a.MulVec(x)
		if resid := Norm2(Sub(ax, b)); resid > 1e-6*(1+Norm2(b)) {
			t.Fatalf("trial %d: NNLS residual %v too large (x=%v, true=%v)",
				trial, resid, x, xTrue)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: negative coefficient x[%d]=%v", trial, j, v)
			}
		}
	}
}

func TestNNLSNonNegativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		m, n := 6, 3
		a := NewDense(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, src.Norm())
			}
			b[i] = src.Norm()
		}
		x, err := oracle.NNLS(a, b)
		if err != nil {
			return true // singular sub-problems may legitimately error
		}
		for _, v := range x {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
