package mat

import (
	"fmt"
	"math"
	"testing"
)

// borderCoverage counts the situations a bordered run reached, so the
// tests can insist that each one was exercised.
type borderCoverage struct {
	fast, slow   int
	pivotFails   int // candidates duplicating a fixed column: the border pivot fails
	zeroCol      int // zero candidate columns
	nan          int // lanes whose system holds a NaN
	fixedDropped int // slow lanes whose solution zeroes a fixed variable
	allSlow      int // groups with no fast lane
	fixedFails   int // fixed blocks whose own pivot fails: the scan goes scalar
	byK          [9]int
}

// runBorderGroups drives one NNLSBorder and one workspace the way a scan
// does: each step draws k in 2..8 and k−1 fixed columns from a pool,
// factors them, and solves a few four-lane groups of candidate columns,
// taking each fast lane and sending each slow one to Fallback. Every lane
// must return the bits, the Solves count and the Iters count of
// NNLSGramInto on a fresh workspace. The pool's columns are bumps at
// spread-out rows, so most systems end in the warm round; it also holds a
// duplicated column (a pivot fails), a zero column, a column that b is
// anti-correlated with (the warm start drops it) and, when withNaN is set,
// a column with a NaN entry. A fixed block whose own pivot fails must make
// Factor report false, and its candidates are then solved by the scalar
// path alone.
func runBorderGroups(t *testing.T, seed uint64, steps int, withNaN bool, cov *borderCoverage) {
	t.Helper()
	s := seed
	n := 16 + int(fuzzMix(&s)%8)
	const poolSize = 12
	pool := make([][]float64, poolSize)
	for c := range pool {
		pool[c] = make([]float64, n)
		center := float64(c*n)/poolSize + fuzzFloat(&s)
		amp := 0.5 + fuzzFloat(&s)
		for i := range pool[c] {
			u := (float64(i) - center) / 1.5
			pool[c][i] = amp / (1 + u*u)
		}
	}
	copy(pool[1], pool[0]) // duplicate
	for i := range pool[2] {
		pool[2][i] = 0
	}
	nanCol := -1
	if withNaN {
		nanCol = 3
		pool[nanCol][int(fuzzMix(&s)%uint64(n))] = math.NaN()
	}
	b := make([]float64, n)
	for c := range pool {
		w := 0.5 + fuzzFloat(&s)
		if c == 7 {
			w = -3
		}
		if c == nanCol {
			continue
		}
		for i := range b {
			b[i] += w * pool[c][i]
		}
	}
	for i := range b {
		b[i] += (fuzzFloat(&s) - 0.5) * 0.05
	}

	var bd NNLSBorder
	var ws NNLSWorkspace
	g, d := make([]float64, 64), make([]float64, 8)
	x, want := make([]float64, 8), make([]float64, 8)
	slots := make([]int, 8)
	same := func(a, b int) bool { return a == b || (a <= 1 && b <= 1) }
	for step := 0; step < steps; step++ {
		k := 2 + int(fuzzMix(&s)%7)
		cov.byK[k]++
		for j := 0; j < k-1; j++ {
			slots[j] = int(fuzzMix(&s) % poolSize)
		}
		gk, dk := g[:k*k], d[:k]
		// setLast fills row and column k−1 and d[k−1] for candidate c.
		setLast := func(c int) {
			slots[k-1] = c
			for i := 0; i < k; i++ {
				v := Dot(pool[c], pool[slots[i]])
				gk[(k-1)*k+i], gk[i*k+k-1] = v, v
			}
			dk[k-1] = Dot(pool[c], b)
		}
		for i := 0; i < k-1; i++ {
			for j := 0; j < k-1; j++ {
				gk[i*k+j] = Dot(pool[slots[i]], pool[slots[j]])
			}
			dk[i] = Dot(pool[slots[i]], b)
		}
		setLast(int(fuzzMix(&s) % poolSize))

		// The oracle of Factor: a fresh factorization of a full system
		// fails ahead of its last row exactly when the fixed block fails.
		var probe NNLSWorkspace
		probe.ensure(k)
		idx := make([]int, k)
		for j := range idx {
			idx[j] = j
		}
		fixedOK := probe.cholSolve(gk, dk, k, idx) || probe.rows == k-1
		ok := bd.Factor(gk, dk)
		if ok != fixedOK {
			t.Fatalf("seed %d step %d (k = %d, fixed %v): Factor reports %v, a fresh factorization %v",
				seed, step, k, slots[:k-1], ok, fixedOK)
		}
		if !ok {
			cov.fixedFails++
		}

		for group := 1 + int(fuzzMix(&s)%3); group > 0; group-- {
			var cands [BorderLanes]int
			var dl [BorderLanes]float64
			for q := range cands {
				c := int(fuzzMix(&s) % poolSize)
				if fuzzMix(&s)%6 == 0 {
					c = slots[int(fuzzMix(&s)%uint64(k-1))] // duplicates a fixed column
				}
				cands[q] = c
				if ok {
					setLast(c)
					copy(bd.Lane(q), gk[(k-1)*k:k*k])
					dl[q] = dk[k-1]
				}
			}
			var fast [BorderLanes]bool
			if ok {
				fast = bd.Solve(dl)
			}
			nFast := 0
			for q, c := range cands {
				setLast(c)
				solves0, iters0 := ws.Solves, ws.Iters
				switch {
				case !ok:
					NNLSGramStableInto(gk, dk, x[:k], &ws, 0)
				case fast[q]:
					bd.Take(q, x[:k], &ws)
				default:
					bd.Fallback(q, gk, dk, x[:k], &ws)
				}
				var fresh NNLSWorkspace
				NNLSGramInto(gk, dk, want[:k], &fresh)
				for j := 0; j < k; j++ {
					if !sameBits(x[j], want[j]) {
						t.Fatalf("seed %d step %d (k = %d, slots %v, lane %d, fast %v): x = %v, fresh workspace %v",
							seed, step, k, slots[:k], q, fast[q], x[:k], want[:k])
					}
				}
				if ws.Solves-solves0 != fresh.Solves || ws.Iters-iters0 != fresh.Iters {
					t.Fatalf("seed %d step %d (k = %d, slots %v, lane %d, fast %v): %d solves / %d iters, fresh workspace %d / %d",
						seed, step, k, slots[:k], q, fast[q], ws.Solves-solves0, ws.Iters-iters0, fresh.Solves, fresh.Iters)
				}
				if !ok {
					continue
				}
				dup := false
				for _, f := range slots[:k-1] {
					dup = dup || same(f, c)
				}
				if dup {
					cov.pivotFails++
				}
				if c == 2 {
					cov.zeroCol++
				}
				for _, v := range gk {
					if math.IsNaN(v) {
						cov.nan++
						break
					}
				}
				if fast[q] {
					cov.fast++
					nFast++
					continue
				}
				cov.slow++
				for j := 0; j < k-1; j++ {
					if want[j] == 0 {
						cov.fixedDropped++
						break
					}
				}
			}
			if ok && nFast == 0 {
				cov.allSlow++
			}
		}
	}
}

// TestNNLSBorderMatchesFresh: over seeded scans, every lane of the
// bordered four-lane solve, fast or fallen back, returns the bits, solves
// and iterations of NNLSGramInto on a fresh workspace, at k = 2..8, through
// failed border pivots, zero and NaN columns, dropped fixed variables,
// groups with no fast lane and fixed blocks whose own pivot fails.
func TestNNLSBorderMatchesFresh(t *testing.T) {
	var cov borderCoverage
	for seed := uint64(1); seed <= 300; seed++ {
		runBorderGroups(t, seed, 30, seed%4 == 0, &cov)
	}
	t.Logf("coverage: %+v", cov)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"fast lanes", cov.fast}, {"slow lanes", cov.slow},
		{"failed border pivots", cov.pivotFails}, {"zero columns", cov.zeroCol},
		{"NaN systems", cov.nan}, {"dropped fixed variables", cov.fixedDropped},
		{"groups with no fast lane", cov.allSlow}, {"failed fixed blocks", cov.fixedFails},
	} {
		if c.n == 0 {
			t.Errorf("no lane covered %s", c.name)
		}
	}
	for k := 2; k <= 8; k++ {
		if cov.byK[k] == 0 {
			t.Errorf("no scan at k = %d", k)
		}
	}
}

// TestNNLSBorderAllocsNothing: once sized, a group's factor, solve, takes
// and fallbacks perform no heap allocations.
func TestNNLSBorderAllocsNothing(t *testing.T) {
	l := lcg(5)
	a, b := randProblem(&l, 20, 5)
	g, d := gramOf(a, b)
	var bd NNLSBorder
	var ws NNLSWorkspace
	x := make([]float64, 5)
	allocs := testing.AllocsPerRun(100, func() {
		bd.Factor(g, d)
		var dk [BorderLanes]float64
		for q := range dk {
			copy(bd.Lane(q), g[4*5:])
			dk[q] = d[4]
		}
		bd.Solve(dk)
		bd.Take(0, x, &ws)
		bd.Fallback(1, g, d, x, &ws)
	})
	if allocs != 0 {
		t.Fatalf("a bordered group allocates %.1f times, want 0", allocs)
	}
}

// FuzzNNLSBorder runs fuzzed bordered scans.
func FuzzNNLSBorder(f *testing.F) {
	f.Add(uint64(1), uint8(20), false)
	f.Add(uint64(4), uint8(40), true)
	f.Add(uint64(91), uint8(8), false)
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, withNaN bool) {
		var cov borderCoverage
		runBorderGroups(t, seed, int(steps), withNaN, &cov)
	})
}

// BenchmarkNNLSBorder times one four-candidate group of a scan at the
// track-exact shape (k = 3) and the field-hotspot active-set cap (k = 8):
// the scalar path solves each candidate with NNLSGramStableInto reusing
// the fixed rows, the bordered path runs Solve and takes or falls back
// each lane. The fixed block is factored outside the loop, once per scan.
func BenchmarkNNLSBorder(b *testing.B) {
	for _, k := range []int{3, 8} {
		// Bump columns at spread-out rows, b a positive mix of all of
		// them: the warm round ends most of these solves.
		const n = 40
		cols := make([][]float64, k-1+BorderLanes)
		s := uint64(k)
		for c := range cols {
			cols[c] = make([]float64, n)
			center := float64(c*n)/float64(len(cols)) + fuzzFloat(&s)
			for i := range cols[c] {
				u := (float64(i) - center) / 2
				cols[c][i] = 1 / (1 + u*u)
			}
		}
		rhs := make([]float64, n)
		for _, col := range cols {
			w := 0.5 + fuzzFloat(&s)
			for i := range rhs {
				rhs[i] += w * col[i]
			}
		}
		var g [BorderLanes][]float64
		var d [BorderLanes][]float64
		for q := range g {
			sys := append(append([][]float64(nil), cols[:k-1]...), cols[k-1+q])
			g[q], d[q] = make([]float64, k*k), make([]float64, k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					g[q][i*k+j] = Dot(sys[i], sys[j])
				}
				d[q][i] = Dot(sys[i], rhs)
			}
		}
		x := make([]float64, k)
		b.Run(fmt.Sprintf("k=%d/scalar", k), func(b *testing.B) {
			var ws NNLSWorkspace
			NNLSGramInto(g[0], d[0], x, &ws)
			for i := 0; i < b.N; i++ {
				for q := range g {
					NNLSGramStableInto(g[q], d[q], x, &ws, k-1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BorderLanes), "ns/candidate")
		})
		b.Run(fmt.Sprintf("k=%d/border", k), func(b *testing.B) {
			var ws NNLSWorkspace
			var bd NNLSBorder
			bd.Factor(g[0], d[0])
			var dk [BorderLanes]float64
			for i := 0; i < b.N; i++ {
				for q := range g {
					copy(bd.Lane(q), g[q][(k-1)*k:])
					dk[q] = d[q][k-1]
				}
				fast := bd.Solve(dk)
				for q := range g {
					if fast[q] {
						bd.Take(q, x, &ws)
					} else {
						bd.Fallback(q, g[q], d[q], x, &ws)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BorderLanes), "ns/candidate")
		})
	}
}
