package mat

import (
	"errors"
	"math"
)

// Residualer evaluates the residual vector r(x) of a nonlinear least-squares
// problem min ||r(x)||^2 at the parameter vector x.
type Residualer func(x []float64) []float64

// NLSResult reports the outcome of a nonlinear least-squares solve.
type NLSResult struct {
	X          []float64 // final parameter estimate
	Objective  float64   // final 0.5*||r||^2
	Iterations int       // iterations performed
	Converged  bool      // whether a convergence criterion was met
}

// The Levenberg-Marquardt solver's budget and stopping rules.
const (
	lmMaxIter = 120   // maximum iterations
	lmTolGrad = 1e-8  // stop when ||J^T r||_inf falls below this
	lmTolStep = 1e-10 // stop when the step is this small relative to x
	lmFDStep  = 1e-6  // finite-difference step for the Jacobian
)

// ErrNoProgress is returned when an NLS solver cannot decrease the objective.
var ErrNoProgress = errors.New("mat: nonlinear solver made no progress")

// numJacobian estimates the Jacobian of r at x by forward differences.
func numJacobian(r Residualer, x, r0 []float64, h float64) *Dense {
	m, n := len(r0), len(x)
	jac := NewDense(m, n)
	xp := make([]float64, n)
	for j := 0; j < n; j++ {
		copy(xp, x)
		step := h * math.Max(1, math.Abs(x[j]))
		xp[j] += step
		rj := r(xp)
		for i := 0; i < m; i++ {
			jac.Set(i, j, (rj[i]-r0[i])/step)
		}
	}
	return jac
}

// LevenbergMarquardt minimizes 0.5*||r(x)||^2 with the Madsen-Nielsen-
// Tingleff damping strategy (the reference the paper cites for NLS methods),
// for at most 120 iterations.
func LevenbergMarquardt(r Residualer, x0 []float64) (NLSResult, error) {
	x := append([]float64(nil), x0...)
	res := r(x)
	f := 0.5 * Dot(res, res)

	jac := numJacobian(r, x, res, lmFDStep)
	jtj, err := jac.T().Mul(jac)
	if err != nil {
		return NLSResult{}, err
	}
	g := jtRes(jac, res)

	// Initial damping proportional to the largest diagonal of J^T J.
	mu := 0.0
	for i := 0; i < jtj.Rows(); i++ {
		mu = math.Max(mu, jtj.At(i, i))
	}
	mu *= 1e-3
	if mu == 0 {
		mu = 1e-3
	}
	nu := 2.0

	for iter := 1; iter <= lmMaxIter; iter++ {
		if infNorm(g) < lmTolGrad {
			return NLSResult{X: x, Objective: f, Iterations: iter, Converged: true}, nil
		}
		// Solve (J^T J + mu I) dx = -g.
		damped := jtj.Clone()
		for i := 0; i < damped.Rows(); i++ {
			damped.Set(i, i, damped.At(i, i)+mu)
		}
		neg := make([]float64, len(g))
		for i, v := range g {
			neg[i] = -v
		}
		dx, err := SolveCholesky(damped, neg)
		if err != nil {
			mu *= nu
			nu *= 2
			continue
		}
		if Norm2(dx) < lmTolStep*(Norm2(x)+lmTolStep) {
			return NLSResult{X: x, Objective: f, Iterations: iter, Converged: true}, nil
		}
		xt := AddScaled(x, 1, dx)
		rt := r(xt)
		ft := 0.5 * Dot(rt, rt)

		// Gain ratio: actual vs predicted reduction.
		pred := 0.5 * Dot(dx, AddScaled(neg, mu, dx))
		rho := (f - ft) / math.Max(pred, 1e-300)
		if rho > 0 {
			x, res, f = xt, rt, ft
			jac = numJacobian(r, x, res, lmFDStep)
			jtj, err = jac.T().Mul(jac)
			if err != nil {
				return NLSResult{}, err
			}
			g = jtRes(jac, res)
			mu *= math.Max(1.0/3.0, 1-math.Pow(2*rho-1, 3))
			nu = 2
		} else {
			mu *= nu
			nu *= 2
			if math.IsInf(mu, 1) {
				return NLSResult{X: x, Objective: f, Iterations: iter}, ErrNoProgress
			}
		}
	}
	return NLSResult{X: x, Objective: f, Iterations: lmMaxIter, Converged: false}, nil
}

// jtRes computes J^T r.
func jtRes(jac *Dense, res []float64) []float64 {
	g := make([]float64, jac.Cols())
	for j := range g {
		var s float64
		for i := 0; i < jac.Rows(); i++ {
			s += jac.At(i, j) * res[i]
		}
		g[j] = s
	}
	return g
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
