package mat

import (
	"math"
	"testing"
)

// stableCoverage counts the situations a stable-row sequence reached, so
// the tests can insist that each one was exercised.
type stableCoverage struct {
	reusedRows   int // factored rows carried into a solve by its declaration
	kChanges     int
	stableZero   int // solves declaring stable = 0
	stableFull   int // solves declaring stable = k (an unchanged system)
	duplicate    int // compositions holding one column twice: a pivot fails
	nan          int // compositions holding a NaN column
	leadDropped  int // solves with reused rows whose first variable ends at 0
	solvesAtKOne int
}

// runStableSequence drives one workspace through a random sequence of
// related solves, the way the search's evaluator does: each step keeps a
// prefix of the composition's slots, redraws the rest from a column pool,
// and declares the kept prefix stable. Every solve must return the bits,
// the Solves count and the Iters count of NNLSGramInto on a fresh
// workspace. The pool holds a duplicated column (a pivot fails mid-factor),
// a zero column, a column that b is anti-correlated with (the warm start
// drops it), and, when withNaN is set, a column with a NaN entry.
func runStableSequence(t *testing.T, seed uint64, steps int, withNaN bool, cov *stableCoverage) {
	t.Helper()
	s := seed
	n := 6 + int(fuzzMix(&s)%10)
	const poolSize = 12
	pool := make([][]float64, poolSize)
	for c := range pool {
		pool[c] = make([]float64, n)
		for i := range pool[c] {
			pool[c][i] = fuzzFloat(&s)
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
	for i := range b {
		b[i] = 1.5*pool[4][i] + 0.7*pool[5][i] + 2*pool[6][i] - 3*pool[7][i] + (fuzzFloat(&s)-0.5)*0.3
	}

	var ws NNLSWorkspace
	k := 0
	slots := make([]int, 8)
	g, d := make([]float64, 64), make([]float64, 8)
	x, want := make([]float64, 8), make([]float64, 8)
	for step := 0; step < steps; step++ {
		stable := 0
		if k == 0 || fuzzMix(&s)%8 == 0 {
			// A new size: every slot is redrawn. A declaration after a
			// solve at another k is ignored, so any is made; at the same k
			// nothing is stable.
			prev := k
			k = 1 + int(fuzzMix(&s)%8)
			for j := 0; j < k; j++ {
				slots[j] = int(fuzzMix(&s) % poolSize)
			}
			if k != prev {
				stable = int(fuzzMix(&s) % uint64(k+1))
				cov.kChanges++
			}
		} else {
			stable = int(fuzzMix(&s) % uint64(k+1))
			for j := stable; j < k; j++ {
				slots[j] = int(fuzzMix(&s) % poolSize)
			}
		}
		if k == 1 {
			cov.solvesAtKOne++
		}
		seen := make(map[int]bool)
		for _, c := range slots[:k] {
			if c == nanCol {
				cov.nan++
			}
			if seen[c] || (c <= 1 && (seen[0] || seen[1])) {
				cov.duplicate++
			}
			seen[c] = true
		}
		gk, dk := g[:k*k], d[:k]
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				gk[i*k+j] = Dot(pool[slots[i]], pool[slots[j]])
			}
			dk[i] = Dot(pool[slots[i]], b)
		}
		switch stable {
		case 0:
			cov.stableZero++
		case k:
			cov.stableFull++
		}
		reused := ws.stableRows(k, stable)
		cov.reusedRows += reused

		solves0, iters0 := ws.Solves, ws.Iters
		NNLSGramStableInto(gk, dk, x[:k], &ws, stable)
		var fresh NNLSWorkspace
		NNLSGramInto(gk, dk, want[:k], &fresh)
		for j := 0; j < k; j++ {
			if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
				t.Fatalf("seed %d step %d (k = %d, slots %v, stable %d): x = %v, fresh workspace %v",
					seed, step, k, slots[:k], stable, x[:k], want[:k])
			}
		}
		if ws.Solves-solves0 != fresh.Solves || ws.Iters-iters0 != fresh.Iters {
			t.Fatalf("seed %d step %d (k = %d, stable %d): %d solves / %d iters, fresh workspace %d / %d",
				seed, step, k, stable, ws.Solves-solves0, ws.Iters-iters0, fresh.Solves, fresh.Iters)
		}
		if reused > 0 && x[0] == 0 {
			cov.leadDropped++
		}
	}
}

// TestNNLSGramStableMatchesFresh: over seeded sequences of related solves
// on one workspace, NNLSGramStableInto returns the bits, solves and
// iterations of NNLSGramInto on a fresh workspace, through size changes,
// failed pivots, NaN entries, warm rounds that drop a leading variable, and
// stable = 0 and k.
func TestNNLSGramStableMatchesFresh(t *testing.T) {
	var cov stableCoverage
	for seed := uint64(1); seed <= 400; seed++ {
		runStableSequence(t, seed, 60, seed%4 == 0, &cov)
	}
	t.Logf("coverage: %+v", cov)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"reused rows", cov.reusedRows}, {"k changes", cov.kChanges},
		{"stable = 0", cov.stableZero}, {"stable = k", cov.stableFull},
		{"duplicated columns", cov.duplicate}, {"NaN columns", cov.nan},
		{"leading variable dropped", cov.leadDropped}, {"k = 1", cov.solvesAtKOne},
	} {
		if c.n == 0 {
			t.Errorf("no solve covered %s", c.name)
		}
	}
}

// TestNNLSGramIntoReusesNothingAcrossCalls: NNLSGramInto must not trust
// rows factored for another system, even at the same k and with the same
// passive list.
func TestNNLSGramIntoReusesNothingAcrossCalls(t *testing.T) {
	l := lcg(12)
	a1, b1 := randProblem(&l, 12, 4)
	a2, b2 := randProblem(&l, 12, 4)
	g1, d1 := gramOf(a1, b1)
	g2, d2 := gramOf(a2, b2)
	var ws, fresh NNLSWorkspace
	x, want := make([]float64, 4), make([]float64, 4)
	NNLSGramInto(g1, d1, x, &ws)
	NNLSGramInto(g2, d2, x, &ws)
	NNLSGramInto(g2, d2, want, &fresh)
	for j := range x {
		if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
			t.Fatalf("second solve on a used workspace: x = %v, fresh workspace %v", x, want)
		}
	}
}

// FuzzNNLSGramStable runs fuzzed stable-row sequences.
func FuzzNNLSGramStable(f *testing.F) {
	f.Add(uint64(1), uint8(40), false)
	f.Add(uint64(4), uint8(80), true)
	f.Add(uint64(77), uint8(10), false)
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, withNaN bool) {
		var cov stableCoverage
		runStableSequence(t, seed, int(steps), withNaN, &cov)
	})
}
