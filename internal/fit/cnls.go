package fit

import (
	"fmt"
	"math"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/rng"
)

// CNLSTracker is the constrained nonlinear least-squares tracker the
// paper's related work pairs with the EKF for remote tracking ([9], [23]):
// at each observation it solves the NLS position fit for a single user,
// with the motion model imposed as a soft constraint pulling the solution
// into the disc of radius vmax·Δt around the previous estimate. Like every
// linearized local method on the flux objective, it needs the previous
// estimate to be good; the A6 experiment quantifies that against the SMC
// tracker.
type CNLSTracker struct {
	model    *fluxmodel.Model
	points   []geom.Point
	vmax     float64
	prev     geom.Point
	prevTime float64
	hasPrev  bool
}

// cnlsRestarts is the Levenberg-Marquardt multistart count per step: the
// anchor itself, then random starts in the motion disc.
const cnlsRestarts = 5

// NewCNLSTracker builds a CNLS tracker over the sniffed points. vmax bounds
// the user's speed.
func NewCNLSTracker(model *fluxmodel.Model, points []geom.Point, vmax float64) (*CNLSTracker, error) {
	if model == nil {
		return nil, fmt.Errorf("fit: nil model")
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("fit: no sampling points")
	}
	if vmax <= 0 {
		return nil, fmt.Errorf("fit: vmax must be positive, got %v", vmax)
	}
	return &CNLSTracker{
		model:  model,
		points: append([]geom.Point(nil), points...),
		vmax:   vmax,
	}, nil
}

// Seed initializes the previous-position estimate (e.g. from an oracle or a
// one-shot localization) so the motion constraint can anchor the first step.
func (c *CNLSTracker) Seed(pos geom.Point, t float64) {
	c.prev = c.model.Field().Clamp(pos)
	c.prevTime = t
	c.hasPrev = true
}

// Step consumes the flux observation at time t and returns the new position
// estimate.
func (c *CNLSTracker) Step(t float64, measured []float64, src *rng.Source) (geom.Point, error) {
	if len(measured) != len(c.points) {
		return geom.Point{}, fmt.Errorf("fit: observation length %d, want %d", len(measured), len(c.points))
	}
	field := c.model.Field()
	radius := field.Diameter() // unconstrained before the first estimate
	anchor := field.Center()
	if c.hasPrev {
		anchor = c.prev
		radius = c.vmax * math.Max(t-c.prevTime, 0)
	}

	// Penalty weight scales with the observation magnitude so the motion
	// constraint competes with the data term.
	var obsNorm float64
	for _, f := range measured {
		obsNorm += f * f
	}
	penalty := math.Sqrt(obsNorm)/float64(len(measured)) + 1

	residuals := func(x []float64) []float64 {
		pos := field.Clamp(geom.Pt(x[0], x[1]))
		cs := []float64{math.Max(0, x[2])}
		pred, err := c.model.PredictFlux([]geom.Point{pos}, cs, c.points)
		if err != nil {
			pred = make([]float64, len(c.points))
		}
		out := make([]float64, len(c.points)+1)
		for i := range pred {
			out[i] = pred[i] - measured[i]
		}
		// Soft motion constraint: zero inside the disc, growing outside.
		if c.hasPrev {
			if d := pos.Dist(anchor); d > radius {
				out[len(pred)] = penalty * (d - radius)
			}
		}
		return out
	}

	best := geom.Point{}
	bestObj := math.Inf(1)
	for attempt := 0; attempt < cnlsRestarts; attempt++ {
		var start geom.Point
		if attempt == 0 {
			start = anchor
		} else {
			start = src.InDiscClamped(anchor, math.Max(radius, 1), field)
		}
		x0 := []float64{start.X, start.Y, 1}
		res, err := mat.LevenbergMarquardt(residuals, x0)
		if err != nil && res.X == nil {
			continue
		}
		if res.Objective < bestObj {
			bestObj = res.Objective
			best = field.Clamp(geom.Pt(res.X[0], res.X[1]))
		}
	}
	if math.IsInf(bestObj, 1) {
		return geom.Point{}, fmt.Errorf("fit: all CNLS restarts failed")
	}
	// Enforce the hard constraint on the accepted step.
	if c.hasPrev {
		if d := best.Dist(anchor); d > radius && d > 0 {
			v := best.Sub(anchor).Scale(radius / d)
			best = field.Clamp(anchor.Add(v))
		}
	}
	c.prev = best
	c.prevTime = t
	c.hasPrev = true
	return best, nil
}
