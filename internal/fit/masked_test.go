package fit

import (
	"errors"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

func maskedTestModel(t *testing.T) *fluxmodel.Model {
	t.Helper()
	m, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNewProblemMaskedMatchesHandCompaction: the masked constructor must be
// exactly equivalent to building the problem from hand-compacted slices —
// same objective for any composition.
func TestNewProblemMaskedMatchesHandCompaction(t *testing.T) {
	m := maskedTestModel(t)
	src := rng.New(31)
	pts := make([]geom.Point, 40)
	meas := make([]float64, 40)
	ws := make([]float64, 40)
	present := make([]bool, 40)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
		meas[i] = src.Uniform(0, 50)
		ws[i] = src.Uniform(0.1, 2)
		present[i] = src.Float64() < 0.6
	}
	present[3] = true // at least one survivor

	var cp []geom.Point
	var cm, cw []float64
	for i, ok := range present {
		if ok {
			cp = append(cp, pts[i])
			cm = append(cm, meas[i])
			cw = append(cw, ws[i])
		}
	}
	for _, weighted := range []bool{false, true} {
		var w, cwUse []float64
		if weighted {
			w, cwUse = ws, cw
		}
		masked, err := NewProblemMasked(m, pts, meas, w, present)
		if err != nil {
			t.Fatal(err)
		}
		manual, err := NewProblemWeighted(m, cp, cm, cwUse)
		if err != nil {
			t.Fatal(err)
		}
		if masked.NumSamples() != len(cp) {
			t.Fatalf("masked problem has %d samples, want %d", masked.NumSamples(), len(cp))
		}
		positions := []geom.Point{src.InRect(m.Field()), src.InRect(m.Field())}
		em, err := masked.Evaluate(positions)
		if err != nil {
			t.Fatal(err)
		}
		eh, err := manual.Evaluate(positions)
		if err != nil {
			t.Fatal(err)
		}
		if em.Objective != eh.Objective {
			t.Errorf("weighted=%v: masked objective %v, hand-compacted %v", weighted, em.Objective, eh.Objective)
		}
		for j := range em.Stretches {
			if em.Stretches[j] != eh.Stretches[j] {
				t.Errorf("weighted=%v: stretch[%d] %v vs %v", weighted, j, em.Stretches[j], eh.Stretches[j])
			}
		}
	}
}

// TestNewProblemMaskedNilPresent: a nil mask is the full problem.
func TestNewProblemMaskedNilPresent(t *testing.T) {
	m := maskedTestModel(t)
	pts := []geom.Point{geom.Pt(5, 5), geom.Pt(20, 10)}
	meas := []float64{3, 7}
	p, err := NewProblemMasked(m, pts, meas, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSamples() != 2 {
		t.Errorf("nil mask kept %d samples, want 2", p.NumSamples())
	}
}

// TestNewProblemMaskedAllMasked: an all-false mask is the typed error.
func TestNewProblemMaskedAllMasked(t *testing.T) {
	m := maskedTestModel(t)
	pts := []geom.Point{geom.Pt(5, 5), geom.Pt(20, 10)}
	meas := []float64{3, 7}
	_, err := NewProblemMasked(m, pts, meas, nil, []bool{false, false})
	if !errors.Is(err, ErrAllMasked) {
		t.Fatalf("all-masked error = %v, want ErrAllMasked", err)
	}
}

// TestNewProblemMaskedValidation: misaligned vectors are rejected.
func TestNewProblemMaskedValidation(t *testing.T) {
	m := maskedTestModel(t)
	pts := []geom.Point{geom.Pt(5, 5), geom.Pt(20, 10)}
	if _, err := NewProblemMasked(m, pts, []float64{1, 2}, nil, []bool{true}); err == nil {
		t.Error("short mask accepted")
	}
	if _, err := NewProblemMasked(m, pts, []float64{1}, nil, []bool{true, true}); err == nil {
		t.Error("short measurement accepted")
	}
	if _, err := NewProblemMasked(m, pts, []float64{1, 2}, []float64{1}, []bool{true, true}); err == nil {
		t.Error("short weights accepted")
	}
}
