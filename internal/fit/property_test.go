package fit

import (
	"math"
	"testing"
	"testing/quick"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// TestObjectiveNonNegativeProperty: the objective is a norm, never negative
// or NaN, for arbitrary candidate compositions.
func TestObjectiveNonNegativeProperty(t *testing.T) {
	p, _ := modelProblem(t, []geom.Point{geom.Pt(10, 12)}, []float64{2}, 40, 31)
	f := func(ax, ay, bx, by uint16) bool {
		pos := []geom.Point{
			geom.Pt(float64(ax%3000)/100, float64(ay%3000)/100),
			geom.Pt(float64(bx%3000)/100, float64(by%3000)/100),
		}
		ev, err := p.Evaluate(pos)
		if err != nil {
			return true // degenerate compositions may legitimately error
		}
		if ev.Objective < 0 || math.IsNaN(ev.Objective) {
			return false
		}
		for _, c := range ev.Stretches {
			if c < 0 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExtraUserNeverHurtsProperty: appending one more candidate user can
// only reduce (or keep) the optimal objective, because NNLS can always set
// the extra stretch factor to zero.
func TestExtraUserNeverHurtsProperty(t *testing.T) {
	p, _ := modelProblem(t, []geom.Point{geom.Pt(20, 8)}, []float64{1.5}, 40, 32)
	f := func(ax, ay, bx, by uint16) bool {
		a := geom.Pt(float64(ax%3000)/100, float64(ay%3000)/100)
		b := geom.Pt(float64(bx%3000)/100, float64(by%3000)/100)
		one, err1 := p.Evaluate([]geom.Point{a})
		two, err2 := p.Evaluate([]geom.Point{a, b})
		if err1 != nil || err2 != nil {
			return true
		}
		return two.Objective <= one.Objective+1e-6*(1+one.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParallelMatchesSerial: candidate evaluations are independent, so the
// search must return byte-identical results with 1 worker and many.
func TestParallelMatchesSerial(t *testing.T) {
	truths := []geom.Point{geom.Pt(9, 12), geom.Pt(21, 19)}
	p, _ := modelProblem(t, truths, []float64{2, 1.5}, 60, 34)
	src := rng.New(35)
	cands := make([][]geom.Point, 2)
	for j := range cands {
		cands[j] = make([]geom.Point, 40)
		for i := range cands[j] {
			cands[j][i] = src.InRect(p.Model().Field())
		}
	}
	for _, maxExh := range []int{10000, 10} { // exhaustive and conditional paths
		serial, err := SearchCandidates(p, cands, Options{TopM: 5, MaxExhaustive: maxExh, Workers: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := SearchCandidates(p, cands, Options{TopM: 5, MaxExhaustive: maxExh, Workers: 8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Best) != len(parallel.Best) {
			t.Fatalf("maxExh=%d: best count %d vs %d", maxExh, len(serial.Best), len(parallel.Best))
		}
		for i := range serial.Best {
			if serial.Best[i].Objective != parallel.Best[i].Objective {
				t.Fatalf("maxExh=%d: best[%d] objective %v vs %v",
					maxExh, i, serial.Best[i].Objective, parallel.Best[i].Objective)
			}
		}
		for j := range serial.PerUser {
			if len(serial.PerUser[j]) != len(parallel.PerUser[j]) {
				t.Fatalf("maxExh=%d: user %d ranking length differs", maxExh, j)
			}
			for i := range serial.PerUser[j] {
				if serial.PerUser[j][i] != parallel.PerUser[j][i] {
					t.Fatalf("maxExh=%d: user %d ranking[%d] differs: %+v vs %+v",
						maxExh, j, i, serial.PerUser[j][i], parallel.PerUser[j][i])
				}
			}
		}
	}
}

// TestObjectiveZeroAtTruthProperty: for measurements generated by the model
// itself, the true composition always achieves (near-)zero objective,
// whatever the sink placement.
func TestObjectiveZeroAtTruthProperty(t *testing.T) {
	m, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(33)
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	f := func(sx, sy uint16, cRaw uint8) bool {
		sink := geom.Pt(float64(sx%2800)/100+1, float64(sy%2800)/100+1)
		c := 0.5 + float64(cRaw)/64
		measured, err := m.PredictFlux([]geom.Point{sink}, []float64{c}, pts)
		if err != nil {
			return false
		}
		p, err := NewProblem(m, pts, measured)
		if err != nil {
			return false
		}
		ev, err := p.Evaluate([]geom.Point{sink})
		if err != nil {
			return false
		}
		scale := 1 + c
		return ev.Objective < 1e-6*scale && math.Abs(ev.Stretches[0]-c) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
