package mat

import (
	"math"
	"testing"

	"fluxtrack/internal/oracle"
)

// lcg is a tiny deterministic generator so the tests need no rng import.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

func randProblem(l *lcg, m, k int) (*Dense, []float64) {
	a := NewDense(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			a.Set(i, j, l.next()*2)
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = l.next()*4 - 1
	}
	return a, b
}

func residualNorm(a *Dense, x, b []float64) float64 {
	ax, _ := a.MulVec(x)
	return Norm2(Sub(ax, b))
}

// TestNNLSIntoMatchesNNLS: the Gram-space workspace solver and the
// allocating QR-based solver reach the same constrained optimum across
// random problems. The two use different passive-set sub-solvers (Cholesky
// on the Gram matrix vs QR on the columns), so solutions agree to solver
// tolerance, not bit-for-bit; both must satisfy the KKT conditions of the
// same convex problem.
func TestNNLSIntoMatchesNNLS(t *testing.T) {
	l := lcg(7)
	var ws NNLSWorkspace
	for trial := 0; trial < 200; trial++ {
		m := 4 + int(l.next()*20)
		k := 1 + trial%4
		a, b := randProblem(&l, m, k)

		want, err := oracle.NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: NNLS: %v", trial, err)
		}
		g, d := gramOf(a, b)
		x := make([]float64, k)
		NNLSGramInto(g, d, x, &ws)
		for j := 0; j < k; j++ {
			if x[j] < 0 || math.IsNaN(x[j]) {
				t.Fatalf("trial %d: x[%d] = %v, want non-negative", trial, j, x[j])
			}
		}
		rWant := residualNorm(a, want, b)
		rGot := residualNorm(a, x, b)
		if rGot > rWant+1e-8*(1+rWant) {
			t.Fatalf("trial %d (m=%d k=%d): workspace residual %v worse than QR residual %v\nx=%v want=%v",
				trial, m, k, rGot, rWant, x, want)
		}
		for j := 0; j < k; j++ {
			if d := math.Abs(x[j] - want[j]); d > 1e-6*(1+math.Abs(want[j])) {
				t.Errorf("trial %d (m=%d k=%d): x[%d] = %v, QR solver got %v (diff %v)",
					trial, m, k, j, x[j], want[j], d)
			}
		}
	}
}

// TestNNLSGramIntoKKT checks the optimality conditions directly on the Gram
// form: non-negativity, near-zero gradient on the support, non-positive
// gradient off it.
func TestNNLSGramIntoKKT(t *testing.T) {
	l := lcg(99)
	var ws NNLSWorkspace
	for trial := 0; trial < 200; trial++ {
		m := 6 + int(l.next()*16)
		k := 1 + trial%5
		a, b := randProblem(&l, m, k)

		g := make([]float64, k*k)
		d := make([]float64, k)
		for p := 0; p < k; p++ {
			d[p] = Dot(a.Col(p), b)
			for q := 0; q < k; q++ {
				g[p*k+q] = Dot(a.Col(p), a.Col(q))
			}
		}
		x := make([]float64, k)
		NNLSGramInto(g, d, x, &ws)

		scale := Norm2(b) + 1
		for j := 0; j < k; j++ {
			grad := d[j]
			for o := 0; o < k; o++ {
				grad -= g[j*k+o] * x[o]
			}
			if x[j] < 0 {
				t.Fatalf("trial %d: x[%d] = %v < 0", trial, j, x[j])
			}
			if x[j] > 0 && math.Abs(grad) > 1e-6*scale {
				t.Errorf("trial %d (k=%d): support gradient w[%d] = %v, want ~0", trial, k, j, grad)
			}
			if x[j] == 0 && grad > 1e-6*scale {
				t.Errorf("trial %d (k=%d): off-support gradient w[%d] = %v, want <= 0", trial, k, j, grad)
			}
		}
	}
}

// TestNNLSGramIntoDegenerate: duplicated columns (a singular Gram matrix)
// must yield a finite non-negative solution, matching how NNLS drops
// degenerate variables instead of failing.
func TestNNLSGramIntoDegenerate(t *testing.T) {
	l := lcg(3)
	var ws NNLSWorkspace
	a, b := randProblem(&l, 10, 3)
	for i := 0; i < 10; i++ {
		a.Set(i, 2, a.At(i, 1)) // column 2 duplicates column 1
	}
	g, d := gramOf(a, b)
	x := make([]float64, 3)
	NNLSGramInto(g, d, x, &ws)
	for j, v := range x {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate solve: x[%d] = %v", j, v)
		}
	}
	want, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rWant := residualNorm(a, want, b)
	rGot := residualNorm(a, x, b)
	if rGot > rWant+1e-8*(1+rWant) {
		t.Fatalf("degenerate solve: residual %v, QR solver reached %v", rGot, rWant)
	}
}

// TestNNLSGramIntoZero: an all-zero system has the all-zero solution.
func TestNNLSGramIntoZero(t *testing.T) {
	var ws NNLSWorkspace
	x := make([]float64, 2)
	x[0], x[1] = 5, 5
	NNLSGramInto(make([]float64, 4), make([]float64, 2), x, &ws)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero system solved to %v, want zeros", x)
	}
}

// TestNNLSGramIntoNoAllocs: after the workspace has warmed up, solves are
// allocation-free — the property the fit evaluator's inner loop relies on.
func TestNNLSGramIntoNoAllocs(t *testing.T) {
	l := lcg(11)
	a, b := randProblem(&l, 12, 4)
	g, d := gramOf(a, b)
	var ws NNLSWorkspace
	x := make([]float64, 4)
	NNLSGramInto(g, d, x, &ws) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		NNLSGramInto(g, d, x, &ws)
	})
	if allocs != 0 {
		t.Fatalf("NNLSGramInto steady state allocates %.1f times per solve, want 0", allocs)
	}
}
