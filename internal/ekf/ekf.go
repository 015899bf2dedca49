// Package ekf implements an Extended Kalman Filter tracker over flux
// measurements — the classical remote-tracking technique the paper's
// related-work section cites (constrained NLS and EKF motion models, [9],
// [23]) and implicitly argues against: the flux observation function is
// only piecewise smooth on rectangular fields, so the linearization can
// diverge where the Sequential Monte Carlo tracker keeps converging. The
// package exists as the baseline for that comparison (experiment A6).
//
// State: a single user's [x, y, vx, vy] with a constant-velocity motion
// model. The measurement function is the flux model evaluated at the
// sniffed nodes with the stretch factor re-fitted (1-column NNLS) at each
// step; the Jacobian is numeric.
package ekf

import (
	"errors"
	"fmt"
	"math"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
)

// Config configures a Tracker.
type Config struct {
	Model        *fluxmodel.Model
	SamplePoints []geom.Point
	// ProcessNoise is the standard deviation of the per-step velocity
	// disturbance (default 1).
	ProcessNoise float64
	// MeasurementNoise is the assumed relative standard deviation of each
	// flux reading: the per-reading variance is
	// (MeasurementNoise*(flux_i + q))² with a small floor q. Flux spans
	// orders of magnitude across the field, so a relative noise model is
	// the only way to keep the linearized gain bounded (default 0.3).
	MeasurementNoise float64
	// MaxStep caps the position correction of one measurement update — a
	// trust region guarding the linearization (default 3).
	MaxStep float64
	// InitPos seeds the position estimate; zero value means field center.
	InitPos geom.Point
	// InitUncertainty is the initial position standard deviation
	// (default: a quarter of the field diameter).
	InitUncertainty float64
}

// Tracker is a single-user EKF over flux observations.
type Tracker struct {
	cfg Config
	// state is [x, y, vx, vy]; cov its 4x4 covariance.
	state []float64
	cov   *mat.Dense
}

// New returns an EKF tracker.
func New(cfg Config) (*Tracker, error) {
	if cfg.Model == nil {
		return nil, errors.New("ekf: nil model")
	}
	if len(cfg.SamplePoints) == 0 {
		return nil, errors.New("ekf: no sampling points")
	}
	if cfg.ProcessNoise <= 0 {
		cfg.ProcessNoise = 1
	}
	if cfg.MeasurementNoise <= 0 {
		cfg.MeasurementNoise = 0.3
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 3
	}
	field := cfg.Model.Field()
	if cfg.InitPos == (geom.Point{}) {
		cfg.InitPos = field.Center()
	}
	if cfg.InitUncertainty <= 0 {
		cfg.InitUncertainty = field.Diameter() / 4
	}
	tr := &Tracker{
		cfg:   cfg,
		state: []float64{cfg.InitPos.X, cfg.InitPos.Y, 0, 0},
		cov:   mat.NewDense(4, 4),
	}
	p0 := cfg.InitUncertainty * cfg.InitUncertainty
	tr.cov.Set(0, 0, p0)
	tr.cov.Set(1, 1, p0)
	tr.cov.Set(2, 2, 4) // generous initial velocity variance
	tr.cov.Set(3, 3, 4)
	return tr, nil
}

// Position returns the current position estimate.
func (tr *Tracker) Position() geom.Point {
	return tr.cfg.Model.Field().Clamp(geom.Pt(tr.state[0], tr.state[1]))
}

// Step consumes one flux observation taken dt after the previous one and
// returns the updated position estimate.
func (tr *Tracker) Step(dt float64, measured []float64) (geom.Point, error) {
	if len(measured) != len(tr.cfg.SamplePoints) {
		return geom.Point{}, fmt.Errorf("ekf: observation length %d, want %d",
			len(measured), len(tr.cfg.SamplePoints))
	}
	if dt <= 0 {
		return geom.Point{}, fmt.Errorf("ekf: dt must be positive, got %v", dt)
	}
	tr.predict(dt)
	if err := tr.update(measured); err != nil {
		return geom.Point{}, err
	}
	return tr.Position(), nil
}

// predict advances the constant-velocity model: x += v*dt, with process
// noise injected on the velocity.
func (tr *Tracker) predict(dt float64) {
	f := mat.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		f.Set(i, i, 1)
	}
	f.Set(0, 2, dt)
	f.Set(1, 3, dt)

	// state = F state
	tr.state[0] += dt * tr.state[2]
	tr.state[1] += dt * tr.state[3]

	// cov = F cov F^T + Q
	fc, _ := f.Mul(tr.cov)
	cov, _ := fc.Mul(f.T())
	q := tr.cfg.ProcessNoise * tr.cfg.ProcessNoise * dt
	cov.Set(2, 2, cov.At(2, 2)+q)
	cov.Set(3, 3, cov.At(3, 3)+q)
	// Position also receives a share so the filter never becomes overconfident.
	cov.Set(0, 0, cov.At(0, 0)+q*dt*dt/4)
	cov.Set(1, 1, cov.At(1, 1)+q*dt*dt/4)
	tr.cov = cov
}

// fitStretch returns the closed-form 1-column non-negative least squares
// stretch factor for position p against the observation.
func (tr *Tracker) fitStretch(p geom.Point, measured []float64) float64 {
	col := tr.cfg.Model.KernelVector(p, tr.cfg.SamplePoints)
	var num, den float64
	for i := range col {
		num += col[i] * measured[i]
		den += col[i] * col[i]
	}
	if den > 0 && num > 0 {
		return num / den
	}
	return 0
}

// measurementAt evaluates the expected flux vector at position p with the
// stretch factor c held fixed. Holding c fixed inside one update keeps the
// numeric Jacobian a pure position gradient; re-fitting c within the
// finite differences would fold dc/dx into it and destabilize the filter.
func (tr *Tracker) measurementAt(p geom.Point, c float64) []float64 {
	p = tr.cfg.Model.Field().Clamp(p)
	col := tr.cfg.Model.KernelVector(p, tr.cfg.SamplePoints)
	for i := range col {
		col[i] *= c
	}
	return col
}

// update performs the EKF measurement update with a numeric Jacobian of the
// flux observation with respect to (x, y).
func (tr *Tracker) update(measured []float64) error {
	n := len(measured)
	pos := tr.cfg.Model.Field().Clamp(geom.Pt(tr.state[0], tr.state[1]))
	c := tr.fitStretch(pos, measured)
	h0 := tr.measurementAt(pos, c)

	// Numeric Jacobian H (n x 4): flux depends on position only. A central
	// difference with a sizable step smooths over the piecewise kinks of
	// the boundary-distance term.
	const eps = 0.05
	hMat := mat.NewDense(n, 4)
	hxp := tr.measurementAt(geom.Pt(pos.X+eps, pos.Y), c)
	hxm := tr.measurementAt(geom.Pt(pos.X-eps, pos.Y), c)
	hyp := tr.measurementAt(geom.Pt(pos.X, pos.Y+eps), c)
	hym := tr.measurementAt(geom.Pt(pos.X, pos.Y-eps), c)
	for i := 0; i < n; i++ {
		hMat.Set(i, 0, (hxp[i]-hxm[i])/(2*eps))
		hMat.Set(i, 1, (hyp[i]-hym[i])/(2*eps))
	}

	// Innovation covariance S = H P H^T + R with relative per-reading
	// noise; q floors the variance on near-silent nodes.
	ph, _ := tr.cov.Mul(hMat.T())
	s, _ := hMat.Mul(ph)
	var meanFlux float64
	for _, f := range measured {
		meanFlux += f
	}
	meanFlux /= float64(n)
	q := 0.1*meanFlux + 1
	for i := 0; i < n; i++ {
		sd := tr.cfg.MeasurementNoise * (measured[i] + q)
		s.Set(i, i, s.At(i, i)+sd*sd)
	}

	// Kalman gain K = P H^T S^{-1}, computed column-wise by solving
	// S x = (H P)_col — S is symmetric positive definite.
	innovation := mat.Sub(measured, h0)
	// Solve S y = innovation once: K*innov = P H^T y.
	y, err := mat.SolveCholesky(s, innovation)
	if err != nil {
		// A singular innovation covariance means the measurement carries no
		// positional information at this linearization point; skip the
		// update rather than corrupt the state (this is precisely the
		// failure mode the paper predicts for linearized solvers).
		return nil
	}
	// dx = P H^T y (4-vector).
	hty, err := hMat.T().MulVec(y)
	if err != nil {
		return err
	}
	dx, err := tr.cov.MulVec(hty)
	if err != nil {
		return err
	}
	// Trust region: the flux model is strongly nonlinear near the sink, so
	// long linear extrapolations are meaningless. Scale the whole state
	// correction down when the position step exceeds MaxStep.
	if stepLen := math.Hypot(dx[0], dx[1]); stepLen > tr.cfg.MaxStep {
		scale := tr.cfg.MaxStep / stepLen
		for i := range dx {
			dx[i] *= scale
		}
	}
	for i := range tr.state {
		tr.state[i] += dx[i]
	}
	// Keep the state on the field: outside it the flux model is identically
	// zero, the Jacobian vanishes, and the filter would freeze.
	clamped := tr.cfg.Model.Field().Clamp(geom.Pt(tr.state[0], tr.state[1]))
	tr.state[0], tr.state[1] = clamped.X, clamped.Y

	// Covariance update (Joseph-free simple form): P = (I - K H) P with
	// K H approximated through the same solves. Compute KH = P H^T S^{-1} H.
	// To stay numerically safe with n >> 4, build K explicitly by solving S
	// against each column of (H P)^T — n is at most a few hundred here.
	k := mat.NewDense(4, len(measured))
	for row := 0; row < 4; row++ {
		// K(row, :) = (P H^T)(row, :) S^{-1}; S is symmetric, so solve
		// S z = (P H^T)(row, :)^T and take z^T. ph = P H^T is 4 x n.
		hpRow := make([]float64, n)
		for i := 0; i < n; i++ {
			hpRow[i] = ph.At(row, i)
		}
		z, err := mat.SolveCholesky(s, hpRow)
		if err != nil {
			return nil
		}
		for i := 0; i < n; i++ {
			k.Set(row, i, z[i])
		}
	}
	kh, err := k.Mul(hMat)
	if err != nil {
		return err
	}
	ikh := mat.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := -kh.At(i, j)
			if i == j {
				v += 1
			}
			ikh.Set(i, j, v)
		}
	}
	cov, err := ikh.Mul(tr.cov)
	if err != nil {
		return err
	}
	// Symmetrize to fight round-off and floor the diagonal.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			v := (cov.At(i, j) + cov.At(j, i)) / 2
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
		cov.Set(i, i, math.Max(cov.At(i, i), 1e-6))
	}
	tr.cov = cov
	return nil
}
