package mat

import (
	"math"
	"testing"
)

// rosenbrockResiduals expresses the Rosenbrock function as a least-squares
// problem: r1 = 10(y - x^2), r2 = 1 - x. Minimum at (1, 1).
func rosenbrockResiduals(x []float64) []float64 {
	return []float64{10 * (x[1] - x[0]*x[0]), 1 - x[0]}
}

// expFitResiduals fits y = a*exp(b*t) to synthetic data with a=2, b=-0.5.
func expFitResiduals(x []float64) []float64 {
	ts := []float64{0, 0.5, 1, 1.5, 2, 3, 4}
	out := make([]float64, len(ts))
	for i, t := range ts {
		want := 2 * math.Exp(-0.5*t)
		out[i] = x[0]*math.Exp(x[1]*t) - want
	}
	return out
}

func TestLevenbergMarquardtRosenbrock(t *testing.T) {
	res, err := LevenbergMarquardt(rosenbrockResiduals, []float64{-1.2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("LM did not converge on Rosenbrock")
	}
	if math.Abs(res.X[0]-1) > 1e-5 || math.Abs(res.X[1]-1) > 1e-5 {
		t.Errorf("LM solution = %v, want [1 1]", res.X)
	}
}

func TestLevenbergMarquardtExpFit(t *testing.T) {
	res, err := LevenbergMarquardt(expFitResiduals, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 || math.Abs(res.X[1]+0.5) > 1e-4 {
		t.Errorf("LM exp fit = %v, want [2 -0.5]", res.X)
	}
	if res.Objective > 1e-10 {
		t.Errorf("LM exp fit objective = %v, want ~0", res.Objective)
	}
}

func TestNLSObjectiveMonotoneUnderLM(t *testing.T) {
	// LM accepts only improving steps, so the final objective can never
	// exceed the initial one.
	x0 := []float64{5, 5}
	r0 := rosenbrockResiduals(x0)
	f0 := 0.5 * Dot(r0, r0)
	res, err := LevenbergMarquardt(rosenbrockResiduals, x0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > f0 {
		t.Errorf("objective increased: %v > %v", res.Objective, f0)
	}
}

func BenchmarkLevenbergMarquardt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LevenbergMarquardt(expFitResiduals, []float64{1, -1}); err != nil {
			b.Fatal(err)
		}
	}
}
