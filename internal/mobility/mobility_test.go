package mobility

import (
	"math"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// Steps returns a copy of the walk's sampled step positions.
func (r *RandomWalk) Steps() []geom.Point {
	return append([]geom.Point(nil), r.steps...)
}

// MaxStepDistance returns the largest distance covered between consecutive
// integer sample times over [0, steps].
func MaxStepDistance(tr Trajectory, steps int) float64 {
	var m float64
	prev := tr.At(0)
	for i := 1; i <= steps; i++ {
		cur := tr.At(float64(i))
		if d := prev.Dist(cur); d > m {
			m = d
		}
		prev = cur
	}
	return m
}

func TestLinearAt(t *testing.T) {
	l := Linear{Start: geom.Pt(1, 2), V: geom.Vec{DX: 2, DY: -1}, T0: 5}
	tests := []struct {
		t    float64
		want geom.Point
	}{
		{0, geom.Pt(1, 2)}, // before T0 clamps to start
		{5, geom.Pt(1, 2)}, // exactly T0
		{7, geom.Pt(5, 0)}, // two units of time later
		{10, geom.Pt(11, -3)},
	}
	for _, tt := range tests {
		if got := l.At(tt.t); got.Dist(tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestRandomWalkValidation(t *testing.T) {
	field := geom.Square(30)
	src := rng.New(1)
	if _, err := NewRandomWalk(field, geom.Pt(-1, 0), 5, 10, src); err == nil {
		t.Error("outside start must error")
	}
	if _, err := NewRandomWalk(field, geom.Pt(5, 5), 0, 10, src); err == nil {
		t.Error("zero speed must error")
	}
	if _, err := NewRandomWalk(field, geom.Pt(5, 5), 5, -1, src); err == nil {
		t.Error("negative steps must error")
	}
}

func TestRandomWalkBounds(t *testing.T) {
	field := geom.Square(30)
	walk, err := NewRandomWalk(field, geom.Pt(15, 15), 4, 50, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	steps := walk.Steps()
	if len(steps) != 51 {
		t.Fatalf("walk has %d positions, want 51", len(steps))
	}
	for i, p := range steps {
		if !field.Contains(p) {
			t.Errorf("step %d at %v escaped the field", i, p)
		}
		if i > 0 {
			if d := steps[i-1].Dist(p); d > 4+1e-9 {
				t.Errorf("step %d moved %v > max speed 4", i, d)
			}
		}
	}
	if m := MaxStepDistance(walk, 50); m > 4+1e-9 {
		t.Errorf("MaxStepDistance = %v, want <= 4", m)
	}
}

func TestRandomWalkInterpolation(t *testing.T) {
	field := geom.Square(30)
	walk, err := NewRandomWalk(field, geom.Pt(15, 15), 3, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	steps := walk.Steps()
	mid := walk.At(2.5)
	want := geom.Lerp(steps[2], steps[3], 0.5)
	if mid.Dist(want) > 1e-12 {
		t.Errorf("At(2.5) = %v, want midpoint %v", mid, want)
	}
	if walk.At(-1) != steps[0] {
		t.Error("negative time must clamp to start")
	}
	if walk.At(1e9) != steps[len(steps)-1] {
		t.Error("time beyond walk must clamp to end")
	}
}

func TestCrossingPair(t *testing.T) {
	field := geom.Square(30)
	a, b, err := CrossingPair(field, 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The two trajectories must actually meet near the field center midway.
	mid := 5.0
	pa, pb := a.At(mid), b.At(mid)
	if pa.Dist(pb) > 1e-9 {
		t.Errorf("trajectories do not cross: %v vs %v at t=%v", pa, pb, mid)
	}
	if pa.Dist(field.Center()) > 1e-9 {
		t.Errorf("crossing point %v is not the field center", pa)
	}
	// Speeds equal the requested speed.
	if v := a.V.Norm(); math.Abs(v-2) > 1e-12 {
		t.Errorf("trajectory a speed = %v, want 2", v)
	}
	if _, _, err := CrossingPair(field, 0, 0, 10); err == nil {
		t.Error("zero speed must error")
	}
	if _, _, err := CrossingPair(field, 1, 0, 0); err == nil {
		t.Error("zero duration must error")
	}
}

func TestMaxStepDistanceLinear(t *testing.T) {
	l := Linear{Start: geom.Pt(0, 0), V: geom.Vec{DX: 3, DY: 4}}
	if got := MaxStepDistance(l, 5); math.Abs(got-5) > 1e-12 {
		t.Errorf("MaxStepDistance = %v, want 5", got)
	}
}
