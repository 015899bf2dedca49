package mat

// Differential tests for NNLSGramInto's warm start against the from-zero
// Lawson–Hanson solve it replaced. nnlsGramIntoFromZero below is that
// solver verbatim, renamed: it starts from x = 0 with no passive variable
// and adds one variable per outer iteration. On a positive-definite Gram
// matrix both must return the same bits; on a rank-deficient one both must
// satisfy the KKT contract and reach the same objective.

import (
	"fmt"
	"math"
	"testing"
)

// nnlsGramIntoFromZero is the from-zero NNLSGramInto, kept as the
// reference of the warm-start tests.
func nnlsGramIntoFromZero(g, d, x []float64, ws *NNLSWorkspace) {
	k := len(d)
	if len(g) != k*k || len(x) != k {
		panic(fmt.Sprintf("mat: NNLSGramInto dimension mismatch: gram %d, d %d, x %d", len(g), len(d), len(x)))
	}
	ws.Solves++
	if k == 1 {
		// Closed form: one variable enters iff its gradient at zero is
		// positive and its column is non-degenerate.
		if d[0] > nnlsGramTol && g[0] > 0 {
			x[0] = d[0] / g[0]
		} else {
			x[0] = 0
		}
		return
	}
	ws.ensure(k)
	for j := range x {
		x[j] = 0
	}

	maxOuter := 3 * k
	for outer := 0; outer < maxOuter; outer++ {
		ws.Iters++
		// Gradient w = d − G x over the active (clamped) variables; pick the
		// most positive one.
		best, bestVal := -1, float64(nnlsGramTol)
		for j := 0; j < k; j++ {
			if ws.passive[j] {
				continue
			}
			s := d[j]
			for o := 0; o < k; o++ {
				if x[o] != 0 {
					s -= g[j*k+o] * x[o]
				}
			}
			if s > bestVal {
				best, bestVal = j, s
			}
		}
		if best < 0 {
			break // KKT conditions satisfied
		}
		ws.passive[best] = true

		// Inner loop: solve the equality-constrained problem on the passive
		// set and move x toward it, clamping variables that would go negative.
		for inner := 0; inner < maxOuter; inner++ {
			idx := ws.idx[:0]
			for j := 0; j < k; j++ {
				if ws.passive[j] {
					idx = append(idx, j)
				}
			}
			if !ws.cholSolve(g, d, k, idx) {
				// Degenerate passive set: drop the newest variable and stop.
				ws.passive[best] = false
				break
			}
			z := ws.z[:len(idx)]
			allPos := true
			for _, v := range z {
				if v <= nnlsGramTol {
					allPos = false
					break
				}
			}
			if allPos {
				for t, j := range idx {
					x[j] = z[t]
				}
				break
			}
			// Line search toward z: alpha = min over offending variables.
			alpha := math.Inf(1)
			for t, j := range idx {
				if z[t] <= nnlsGramTol {
					denom := x[j] - z[t]
					if denom > 0 {
						alpha = math.Min(alpha, x[j]/denom)
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for t, j := range idx {
				x[j] += alpha * (z[t] - x[j])
				if x[j] <= nnlsGramTol {
					x[j] = 0
					ws.passive[j] = false
				}
			}
		}
	}
}

// warmProblem draws the Gram system of a random m×k least-squares problem
// with k in [2, 10]. Columns are positive, as the search's kernel columns
// are. kind picks the shape:
//   - 0: b is a positive combination of the columns plus noise, so most
//     variables are positive at the optimum (the search's common case);
//   - 1: as 0, with one column duplicating another (a singular Gram
//     matrix: two users at one position);
//   - 2: only one or two columns carry signal and the noise is large, so
//     most variables clamp to zero.
func warmProblem(seed uint64, kind int) (a *Dense, b []float64) {
	s := seed
	k := 2 + int(fuzzMix(&s)%9)
	m := k + int(fuzzMix(&s)%uint64(2*k+4))
	a = NewDense(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			a.Set(i, j, fuzzFloat(&s))
		}
	}
	xTrue := make([]float64, k)
	noise := 0.05
	switch kind {
	case 0, 1:
		for j := range xTrue {
			xTrue[j] = 0.2 + fuzzFloat(&s)*3
		}
	case 2:
		xTrue[int(fuzzMix(&s)%uint64(k))] = 1 + fuzzFloat(&s)
		if fuzzMix(&s)%2 == 0 {
			xTrue[int(fuzzMix(&s)%uint64(k))] = 1 + fuzzFloat(&s)
		}
		noise = 2
	}
	if kind == 1 {
		src := int(fuzzMix(&s) % uint64(k))
		dst := (src + 1 + int(fuzzMix(&s)%uint64(k-1))) % k
		for i := 0; i < m; i++ {
			a.Set(i, dst, a.At(i, src))
		}
	}
	b = make([]float64, m)
	for i := range b {
		v := 0.0
		for j := 0; j < k; j++ {
			v += a.At(i, j) * xTrue[j]
		}
		b[i] = v + (fuzzFloat(&s)-0.5)*noise
	}
	return a, b
}

// TestNNLSGramWarmStartMatchesFromZero: over 40k seeded problems of each
// warmProblem kind, the warm-started solve returns the from-zero solve's
// bits. It also bounds the iterations each kind burns, warm-start rounds
// included. Where most variables are positive at the optimum, the warm
// start needs at most half the from-zero iterations. A duplicated column
// makes the first warm round's factorization fail, which costs at most one
// iteration per solve more than the from-zero solve. Where most variables clamp, the
// warm start costs no more than the from-zero solve.
func TestNNLSGramWarmStartMatchesFromZero(t *testing.T) {
	const perKind = 40000
	for kind := 0; kind < 3; kind++ {
		var warm, ref NNLSWorkspace
		var x, want [10]float64
		for n := 0; n < perKind; n++ {
			a, b := warmProblem(uint64(3*n+kind)*0x9e3779b97f4a7c15+1, kind)
			g, d := gramOf(a, b)
			k := len(d)
			NNLSGramInto(g, d, x[:k], &warm)
			nnlsGramIntoFromZero(g, d, want[:k], &ref)
			for j := 0; j < k; j++ {
				if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
					t.Fatalf("kind %d problem %d (k=%d): x[%d] = %v, from-zero solve %v\nx    = %v\nwant = %v",
						kind, n, k, j, x[j], want[j], x[:k], want[:k])
				}
			}
		}
		if warm.Solves != ref.Solves {
			t.Fatalf("kind %d: solves %d, from-zero %d", kind, warm.Solves, ref.Solves)
		}
		t.Logf("kind %d: iterations %d warm start, %d from zero (%.2f vs %.2f per solve)",
			kind, warm.Iters, ref.Iters, float64(warm.Iters)/perKind, float64(ref.Iters)/perKind)
		limit := map[int]uint64{0: ref.Iters / 2, 1: ref.Iters + perKind, 2: ref.Iters}[kind]
		if warm.Iters > limit {
			t.Errorf("kind %d: warm start burned %d iterations, limit %d (from zero %d)", kind, warm.Iters, limit, ref.Iters)
		}
	}
}

// TestNNLSGramWarmStartNaN: a NaN in d or g gives the from-zero solve's
// result. The warm rounds drop every variable whose solution is NaN, so
// the active-set loop runs as it did from zero.
func TestNNLSGramWarmStartNaN(t *testing.T) {
	for n := 0; n < 2000; n++ {
		a, b := warmProblem(uint64(n)*0x51ed2701+5, 0)
		g, d := gramOf(a, b)
		k := len(d)
		s := uint64(n)
		j := int(fuzzMix(&s) % uint64(k))
		if n%2 == 0 {
			d[j] = math.NaN()
		} else {
			o := int(fuzzMix(&s) % uint64(k))
			g[j*k+o], g[o*k+j] = math.NaN(), math.NaN()
		}
		var ws, wsRef NNLSWorkspace
		x, want := make([]float64, k), make([]float64, k)
		NNLSGramInto(g, d, x, &ws)
		nnlsGramIntoFromZero(g, d, want, &wsRef)
		for i := range x {
			if x[i] != want[i] && !(math.IsNaN(x[i]) && math.IsNaN(want[i])) {
				t.Fatalf("problem %d (k=%d, NaN at %d): x = %v, from-zero solve %v", n, k, j, x, want)
			}
		}
	}
}

// gramWellConditioned reports whether every pivot of g's Cholesky
// factorization keeps at least 1e-6 of its diagonal entry: each column
// keeps at least a thousandth of its norm outside the span of the columns
// before it. Such a g is positive definite with room to spare, so the NNLS
// solution is unique and no variable of a rival passive set sits within
// rounding of a KKT tolerance.
func gramWellConditioned(g []float64, k int) bool {
	l := make([]float64, k*k)
	for a := 0; a < k; a++ {
		for b := 0; b <= a; b++ {
			s := g[a*k+b]
			for t := 0; t < b; t++ {
				s -= l[a*k+t] * l[b*k+t]
			}
			if a == b {
				if !(s > 1e-6*g[a*k+a]) {
					return false
				}
				l[a*k+a] = math.Sqrt(s)
			} else {
				l[a*k+b] = s / l[b*k+b]
			}
		}
	}
	return true
}

// objective returns ‖Ax − b‖².
func objective(a *Dense, b, x []float64) float64 {
	ax, _ := a.MulVec(x)
	r := Norm2(Sub(ax, b))
	return r * r
}

// FuzzNNLSGramWarmStart compares the warm-started solve with the from-zero
// reference on fuzzProblem's systems. A well-conditioned positive-definite
// Gram matrix must give the same bits. Any other one (duplicated or zero
// columns, k > m, nearly dependent columns) must give a solution that meets TestNNLSGramIntoKKT's conditions
// and whose objective ‖Ax − b‖² is within 1e-12 of the reference's,
// relative to the larger of the two. A floor of 1e-20·‖b‖² absorbs the
// rounding of an objective that is zero in exact arithmetic (k > m).
func FuzzNNLSGramWarmStart(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(8))
	f.Add(uint64(7), uint8(4), uint8(2))  // k > m: rank-deficient
	f.Add(uint64(99), uint8(2), uint8(6)) // duplicate-column candidates
	f.Add(uint64(12), uint8(5), uint8(11))
	f.Add(uint64(50), uint8(4), uint8(3)) // k > m: two zero-residual optima
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, mRaw uint8) {
		k, m := clampDims(kRaw, mRaw)
		a, b := fuzzProblem(seed, m, k)
		g, d := gramOf(a, b)
		var ws, wsRef NNLSWorkspace
		x, want := make([]float64, k), make([]float64, k)
		NNLSGramInto(g, d, x, &ws)
		nnlsGramIntoFromZero(g, d, want, &wsRef)
		checkNNLSSolution(t, a, b, x, "warm start")
		if gramWellConditioned(g, k) {
			for j := range x {
				if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
					t.Fatalf("well-conditioned Gram: x = %v, from-zero solve %v", x, want)
				}
			}
			return
		}
		scale := Norm2(b) + 1
		for j := 0; j < k; j++ {
			grad := d[j]
			for o := 0; o < k; o++ {
				grad -= g[j*k+o] * x[o]
			}
			if x[j] > 0 && math.Abs(grad) > 1e-6*scale {
				t.Fatalf("support gradient w[%d] = %v, want ~0 (x = %v)", j, grad, x)
			}
			if x[j] == 0 && grad > 1e-6*scale {
				t.Fatalf("off-support gradient w[%d] = %v, want <= 0 (x = %v)", j, grad, x)
			}
		}
		got, ref := objective(a, b, x), objective(a, b, want)
		bb := Dot(b, b)
		if math.Abs(got-ref) > 1e-12*math.Max(got, ref)+1e-20*bb {
			t.Fatalf("objective %v, from-zero solve %v (x = %v, want %v)", got, ref, x, want)
		}
	})
}
