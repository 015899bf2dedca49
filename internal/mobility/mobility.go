// Package mobility provides the user-movement models of the paper's
// evaluation: straight-line trajectories for the instant tracking cases
// (Fig 7) and speed-bounded random walks.
//
// A model is any Trajectory: a function At(t) from observation time to a
// position inside the field. Linear is deterministic given its
// construction (a zero velocity gives a stationary user); RandomWalk draws
// turns from an explicit *rng.Source, so walks replay exactly under a fixed
// seed. The walk's speed bound is
// the same constant the SMC tracker's motion prior (internal/smc)
// assumes — experiments that sweep maximum speed (Fig 10b) vary both
// together. Trajectories produce geom.Point values clamped to the field
// rectangle by construction, never by the consumer.
package mobility

import (
	"errors"
	"fmt"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// Trajectory yields a user's position as a function of time.
type Trajectory interface {
	// At returns the position at time t.
	At(t float64) geom.Point
}

// Linear is constant-velocity motion from Start at time T0.
type Linear struct {
	Start geom.Point
	V     geom.Vec // velocity per unit time
	T0    float64
}

var _ Trajectory = Linear{}

// At implements Trajectory. Positions before T0 clamp to Start.
func (l Linear) At(t float64) geom.Point {
	if t < l.T0 {
		return l.Start
	}
	return l.Start.Add(l.V.Scale(t - l.T0))
}

// RandomWalk is a speed-bounded random walk sampled on unit time steps; the
// position at fractional times interpolates linearly. It matches the weak
// mobility model of §4.C: the only assumption the tracker makes is a
// maximum speed.
type RandomWalk struct {
	steps []geom.Point
}

var _ Trajectory = (*RandomWalk)(nil)

// NewRandomWalk samples a walk of the given number of unit steps starting
// at start: each step moves a uniform distance in [0, maxSpeed] in a
// uniform direction, rejected (resampled) until it stays inside field.
func NewRandomWalk(field geom.Rect, start geom.Point, maxSpeed float64, steps int, src *rng.Source) (*RandomWalk, error) {
	if !field.Contains(start) {
		return nil, fmt.Errorf("mobility: start %v outside field %v", start, field)
	}
	if maxSpeed <= 0 {
		return nil, fmt.Errorf("mobility: maxSpeed must be positive, got %v", maxSpeed)
	}
	if steps < 0 {
		return nil, fmt.Errorf("mobility: steps must be non-negative, got %d", steps)
	}
	walk := make([]geom.Point, steps+1)
	walk[0] = start
	for i := 1; i <= steps; i++ {
		walk[i] = src.InDiscClamped(walk[i-1], maxSpeed, field)
	}
	return &RandomWalk{steps: walk}, nil
}

// At implements Trajectory; fractional times interpolate between steps.
func (r *RandomWalk) At(t float64) geom.Point {
	if t <= 0 {
		return r.steps[0]
	}
	last := float64(len(r.steps) - 1)
	if t >= last {
		return r.steps[len(r.steps)-1]
	}
	i := int(t)
	return geom.Lerp(r.steps[i], r.steps[i+1], t-float64(i))
}

// CrossingPair returns two linear trajectories that intersect midway through
// the window [t0, t0+duration] — the identity-confusion scenario of
// Fig 7(d): the tracker keeps both trajectories but may swap identities at
// the crossing point.
func CrossingPair(field geom.Rect, speed, t0, duration float64) (Linear, Linear, error) {
	if speed <= 0 || duration <= 0 {
		return Linear{}, Linear{}, fmt.Errorf("mobility: speed and duration must be positive (%v, %v)", speed, duration)
	}
	c := field.Center()
	half := speed * duration / 2
	// Diagonal approaches that meet at the center at t0 + duration/2.
	d1, ok1 := geom.Vec{DX: 1, DY: 1}.Unit()
	d2, ok2 := geom.Vec{DX: 1, DY: -1}.Unit()
	if !ok1 || !ok2 {
		return Linear{}, Linear{}, errors.New("mobility: internal direction error")
	}
	a := Linear{Start: field.Clamp(c.Add(d1.Scale(-half))), V: d1.Scale(speed), T0: t0}
	b := Linear{Start: field.Clamp(c.Add(d2.Scale(-half))), V: d2.Scale(speed), T0: t0}
	return a, b, nil
}
