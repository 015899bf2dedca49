package mat

// Native fuzz targets for the NNLS core: the workspace solvers and the
// Cholesky active-set kernel underneath them are the innermost numeric loop
// of every experiment (millions of calls per figure), so they must never
// emit NaN/Inf, never return a negative stretch, and never do worse than
// the zero vector — for any Gram system a randomized candidate pool can
// produce, including rank-deficient ones (duplicate candidate positions)
// and wildly scaled columns. Each target derives its random problem from
// the fuzzed seed through a splitmix64 stream, so every failing input is a
// compact, perfectly reproducible coordinate.
//
// CI runs these for a 20s smoke per target (see .github/workflows/ci.yml);
// `go test` without -fuzz still executes the seed corpus as regression
// tests. FuzzNorm2Dot checks the vector kernels under them against exact
// math/big arithmetic.

import (
	"math"
	"math/big"
	"testing"
)

// fuzzMix is a splitmix64 step used to expand one fuzz seed into a stream.
func fuzzMix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fuzzFloat(s *uint64) float64 { // uniform in [0, 1)
	return float64(fuzzMix(s)>>11) / (1 << 53)
}

// fuzzProblem builds a random m×k least-squares instance from a seed:
// columns uniform in [0, scale), an optional duplicated column pair (the
// degenerate two-users-at-one-position case), an optional zero column, and
// a right-hand side mixing signal and noise so the optimum is nontrivial.
func fuzzProblem(seed uint64, m, k int) (a *Dense, b []float64) {
	s := seed
	scale := math.Pow(10, fuzzFloat(&s)*6-3) // column scales from 1e-3 to 1e3
	a = NewDense(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			a.Set(i, j, fuzzFloat(&s)*scale)
		}
	}
	if k >= 2 && fuzzMix(&s)%4 == 0 {
		// Duplicate a column: rank-deficient Gram matrix.
		for i := 0; i < m; i++ {
			a.Set(i, 1, a.At(i, 0))
		}
	}
	if k >= 2 && fuzzMix(&s)%5 == 0 {
		// Zero column: degenerate candidate outside the field.
		for i := 0; i < m; i++ {
			a.Set(i, k-1, 0)
		}
	}
	b = make([]float64, m)
	xTrue := make([]float64, k)
	for j := range xTrue {
		xTrue[j] = fuzzFloat(&s) * 3
	}
	for i := 0; i < m; i++ {
		v := 0.0
		for j := 0; j < k; j++ {
			v += a.At(i, j) * xTrue[j]
		}
		b[i] = v + (fuzzFloat(&s)-0.5)*scale // signal + noise, can go negative
	}
	return a, b
}

// gramOf forms G = AᵀA and d = Aᵀb densely.
func gramOf(a *Dense, b []float64) (g, d []float64) {
	k := a.Cols()
	g = make([]float64, k*k)
	d = make([]float64, k)
	for p := 0; p < k; p++ {
		cp := a.Col(p)
		d[p] = Dot(cp, b)
		for q := 0; q < k; q++ {
			g[p*k+q] = Dot(cp, a.Col(q))
		}
	}
	return g, d
}

// checkNNLSSolution asserts the universal NNLS contract on x: finite,
// non-negative, and a residual no worse than the zero vector's.
func checkNNLSSolution(t *testing.T, a *Dense, b, x []float64, label string) {
	t.Helper()
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: x[%d] = %v not finite", label, j, v)
		}
		if v < 0 {
			t.Fatalf("%s: x[%d] = %v negative", label, j, v)
		}
	}
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	resid := Norm2(Sub(ax, b))
	zero := Norm2(b)
	// The zero vector is always feasible, so the optimum can never beat it
	// by less than nothing; allow conditioning slack proportional to the
	// problem scale.
	if resid > zero*(1+1e-8)+1e-8 {
		t.Fatalf("%s: residual %v worse than zero-vector residual %v", label, resid, zero)
	}
}

// clampDims maps raw fuzz bytes to problem dimensions: k in [1, 6],
// m in [1, 12] — small enough to be fast, wide enough to cover k > m
// (underdetermined) and duplicate-column rank deficiency.
func clampDims(kRaw, mRaw uint8) (k, m int) {
	return int(kRaw%6) + 1, int(mRaw%12) + 1
}

// FuzzNNLSGramInto feeds randomized (possibly singular) Gram systems to the
// allocation-free Gram-space solver.
func FuzzNNLSGramInto(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(8))
	f.Add(uint64(42), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(4), uint8(2))  // k > m: rank-deficient
	f.Add(uint64(99), uint8(2), uint8(6)) // duplicate-column candidates
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, mRaw uint8) {
		k, m := clampDims(kRaw, mRaw)
		a, b := fuzzProblem(seed, m, k)
		g, d := gramOf(a, b)
		var ws NNLSWorkspace
		x := make([]float64, k)
		NNLSGramInto(g, d, x, &ws)
		checkNNLSSolution(t, a, b, x, "NNLSGramInto")
	})
}

// FuzzCholSolve targets the Cholesky kernel of the active-set iteration
// directly: for a strictly SPD Gram submatrix it must solve the passive-set
// normal equations accurately, and it must report false (not return
// garbage) on singular submatrices.
func FuzzCholSolve(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), false)
	f.Add(uint64(3), uint8(2), uint8(2), true)
	f.Add(uint64(8), uint8(6), uint8(10), false)
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, mRaw uint8, makeSingular bool) {
		k, m := clampDims(kRaw, mRaw)
		if m < k {
			m = k // square-or-tall so the SPD branch is reachable
		}
		a, b := fuzzProblem(seed, m, k)
		if makeSingular && k >= 2 {
			for i := 0; i < m; i++ {
				a.Set(i, k-1, a.At(i, 0))
			}
		} else {
			// Ridge the diagonal so the matrix is strictly SPD even when
			// fuzzProblem duplicated or zeroed a column.
			s := seed ^ 0xabcdef
			for i := 0; i < m && i < k; i++ {
				a.Set(i, i, a.At(i, i)+1+fuzzFloat(&s))
			}
		}
		g, d := gramOf(a, b)

		// Random passive subset of the variables, always non-empty.
		s := seed ^ 0x5eed
		var idx []int
		for j := 0; j < k; j++ {
			if fuzzMix(&s)%2 == 0 {
				idx = append(idx, j)
			}
		}
		if len(idx) == 0 {
			idx = append(idx, int(fuzzMix(&s)%uint64(k)))
		}

		var ws NNLSWorkspace
		ws.ensure(k)
		ok := ws.cholSolve(g, d, k, idx)
		if !ok {
			return // reported singular: legitimate for these inputs
		}
		z := ws.z[:len(idx)]
		for t2, v := range z {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("cholSolve z[%d] = %v not finite", t2, v)
			}
		}
		// Verify G[idx,idx]·z ≈ d[idx] in a relative sense.
		var worst, scale float64
		for _, ji := range idx {
			sum := 0.0
			for tj, jj := range idx {
				sum += g[ji*k+jj] * z[tj]
			}
			worst = math.Max(worst, math.Abs(sum-d[ji]))
			scale = math.Max(scale, math.Abs(d[ji]))
			for tj := range idx {
				scale = math.Max(scale, math.Abs(g[ji*k+idx[tj]]*z[tj]))
			}
		}
		if worst > 1e-6*math.Max(scale, 1e-12) {
			t.Fatalf("cholSolve residual %v at scale %v (idx %v)", worst, scale, idx)
		}
	})
}

// TestNNLSPropertySweep runs the fuzz bodies over a deterministic seed
// sweep so plain `go test` exercises hundreds of random Gram systems even
// when fuzzing is off.
func TestNNLSPropertySweep(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		k := int(seed%6) + 1
		m := int((seed/6)%12) + 1
		a, b := fuzzProblem(seed*2654435761, m, k)
		g, d := gramOf(a, b)
		var ws NNLSWorkspace
		x := make([]float64, k)
		NNLSGramInto(g, d, x, &ws)
		checkNNLSSolution(t, a, b, x, "sweep")
	}
}

// fuzzVector draws n values with random signs and magnitudes spread over
// 10^±spread, with roughly one in eight exactly zero.
func fuzzVector(s *uint64, n, spread int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if fuzzMix(s)%8 == 0 {
			continue
		}
		e := float64(int(fuzzMix(s)%uint64(2*spread+1)) - spread)
		v[i] = (2*fuzzFloat(s) - 1) * math.Pow(10, e)
	}
	return v
}

// exactDot returns Σ a_i b_i and Σ |a_i b_i| in 2200-bit arithmetic: every
// float64 product is exact, and the sums round at 2^-2200 relative, far
// below the fuzz target's tolerance.
func exactDot(a, b []float64) (sum, abs *big.Float) {
	sum, abs = new(big.Float).SetPrec(2200), new(big.Float).SetPrec(2200)
	for i := range a {
		p := new(big.Float).SetPrec(2200).SetFloat64(a[i])
		p.Mul(p, new(big.Float).SetFloat64(b[i]))
		sum.Add(sum, p)
		abs.Add(abs, p.Abs(p))
	}
	return sum, abs
}

// FuzzNorm2Dot compares Dot and Norm2 with exact references. Dot must lie
// within 4n ulp of Σ|a_i b_i| of the exact sum (the classic γ_n bound of
// recursive summation, with slack for the four-lane order), and Norm2
// within 4n ulp of the exact norm, whether it takes the fast path or the
// scaled fallback. Both allow 4n smallest subnormals for terms that
// underflow.
func FuzzNorm2Dot(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(3))
	f.Add(uint64(2), uint8(64), uint8(0))
	f.Add(uint64(3), uint8(5), uint8(200))  // overflowing and underflowing squares
	f.Add(uint64(4), uint8(33), uint8(160)) // near the fast-path boundaries
	f.Add(uint64(5), uint8(0), uint8(10))   // empty
	f.Add(uint64(6), uint8(9), uint8(150))  // squares in the subnormal range
	f.Add(uint64(7), uint8(12), uint8(255)) // spread capped at 300
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, spreadRaw uint8) {
		s := seed
		n := int(nRaw) % 65
		spread := min(int(spreadRaw)*2, 300)
		a, b := fuzzVector(&s, n, spread), fuzzVector(&s, n, spread)
		tiny := 4 * float64(n) * math.SmallestNonzeroFloat64
		eps := 4 * float64(n) * 0x1p-52

		sum, abs := exactDot(a, b)
		if absF, _ := abs.Float64(); !math.IsInf(absF, 0) {
			want, _ := sum.Float64()
			if got := Dot(a, b); math.Abs(got-want) > eps*absF+tiny {
				t.Fatalf("Dot = %v, exact %v (Σ|ab| = %v, n = %d)", got, want, absF, n)
			}
		}

		want := 0.0
		if ssq, _ := exactDot(a, a); ssq.Sign() > 0 {
			want, _ = new(big.Float).SetPrec(2200).Sqrt(ssq).Float64()
		}
		got := Norm2(a)
		switch {
		case math.IsInf(want, 1):
			if !math.IsInf(got, 1) {
				t.Fatalf("Norm2 = %v, exact norm overflows", got)
			}
		case math.Abs(got-want) > eps*want+tiny:
			t.Fatalf("Norm2 = %v, exact %v (n = %d)", got, want, n)
		}
	})
}
