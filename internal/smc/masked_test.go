package smc

import (
	"errors"
	"math"
	"testing"

	"fluxtrack/internal/geom"
)

// maskedTracker builds a one-user tracker over the standard test model.
func maskedTracker(t *testing.T, seed uint64) (*Tracker, []geom.Point, []float64) {
	t.Helper()
	m, pts := testModel(t, 41)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1,
		N: 300, M: 10, VMax: 5,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	obs := observe(t, m, pts, []geom.Point{geom.Pt(11, 19)}, []float64{1.5})
	return tr, pts, obs
}

// TestStepMaskedAllMasked is the regression test for the typed-error
// contract: a round whose observation vector is entirely masked must return
// ErrAllMasked (not panic, not NaN estimates) and leave the tracker state
// untouched so tracking resumes on the next delivered round.
func TestStepMaskedAllMasked(t *testing.T) {
	tr, pts, obs := maskedTracker(t, 9)

	// Warm the tracker with one clean round.
	if _, err := tr.Step(1, obs); err != nil {
		t.Fatal(err)
	}
	before, err := tr.Step(2, obs)
	if err != nil {
		t.Fatal(err)
	}

	allMasked := make([]bool, len(pts))
	_, err = tr.StepMasked(3, obs, allMasked, nil)
	if !errors.Is(err, ErrAllMasked) {
		t.Fatalf("fully masked round returned %v, want ErrAllMasked", err)
	}
	if tr.Steps() != 2 {
		t.Fatalf("failed round advanced Steps to %d, want 2", tr.Steps())
	}

	// The tracker must still function, and its Δt keeps growing across the
	// skipped round (asynchronous updating): the next clean step works and
	// produces finite estimates close to where it was.
	after, err := tr.Step(4, obs)
	if err != nil {
		t.Fatalf("step after masked round: %v", err)
	}
	est := after.Estimates[0]
	if math.IsNaN(est.Mean.X) || math.IsNaN(est.Mean.Y) {
		t.Fatal("estimate went NaN after a masked round")
	}
	if d := est.Mean.Dist(before.Estimates[0].Mean); d > 10 {
		t.Errorf("estimate jumped %.2f after one skipped round", d)
	}
}

// TestStepMaskedEquivalentWhenAllPresent: an all-true mask with zero ages
// must be byte-identical to the unmasked Step on a twin tracker with the
// same seed.
func TestStepMaskedEquivalentWhenAllPresent(t *testing.T) {
	trA, pts, obs := maskedTracker(t, 17)
	trB, _, _ := maskedTracker(t, 17)

	present := make([]bool, len(pts))
	for i := range present {
		present[i] = true
	}
	ages := make([]int, len(pts))
	for step := 1; step <= 3; step++ {
		ra, err := trA.Step(float64(step), obs)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := trB.StepMasked(float64(step), obs, present, ages)
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := ra.Estimates[0], rb.Estimates[0]
		if ea.Mean != eb.Mean || ea.Best != eb.Best || ea.Stretch != eb.Stretch {
			t.Fatalf("step %d: masked all-present diverged from Step: %+v vs %+v", step, ea, eb)
		}
		if ra.Objective != rb.Objective {
			t.Fatalf("step %d: objective %v vs %v", step, ra.Objective, rb.Objective)
		}
	}
}

// TestStepMaskedDegradesGracefully: with 40% of the sensors masked every
// round the tracker must keep producing finite, in-field estimates and
// still roughly find a stationary user.
func TestStepMaskedDegradesGracefully(t *testing.T) {
	tr, pts, obs := maskedTracker(t, 23)
	present := make([]bool, len(pts))
	for i := range present {
		present[i] = i%5 >= 2 // deterministic 40% mask
	}
	var last Estimate
	for step := 1; step <= 5; step++ {
		res, err := tr.StepMasked(float64(step), obs, present, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = res.Estimates[0]
		if math.IsNaN(last.Mean.X) || math.IsNaN(last.Mean.Y) ||
			math.IsInf(last.Mean.X, 0) || math.IsInf(last.Mean.Y, 0) {
			t.Fatalf("step %d: non-finite estimate %v", step, last.Mean)
		}
	}
	if d := last.Mean.Dist(geom.Pt(11, 19)); d > 3 {
		t.Errorf("masked tracking error %.2f after 5 rounds, want <= 3", d)
	}
}

// TestStepMaskedStaleWeightsMatter: deflating stale reports must actually
// change the fit — a round where half the reports are 3 rounds old produces
// a different estimate than the same round treated as all-fresh.
func TestStepMaskedStaleWeightsMatter(t *testing.T) {
	m, pts := testModel(t, 41)
	mkTracker := func() *Tracker {
		tr, err := New(Config{
			Model: m, SamplePoints: pts, NumUsers: 1,
			N: 300, M: 10, VMax: 5,
		}, 29)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// Stale readings carry a *different* (older) flux value, so weighting
	// matters: sensors with age > 0 report the flux of a past position.
	old := observe(t, m, pts, []geom.Point{geom.Pt(6, 10)}, []float64{1.5})
	now := observe(t, m, pts, []geom.Point{geom.Pt(14, 22)}, []float64{1.5})
	mixed := make([]float64, len(pts))
	ages := make([]int, len(pts))
	for i := range mixed {
		if i%2 == 0 {
			mixed[i], ages[i] = old[i], 3
		} else {
			mixed[i] = now[i]
		}
	}

	run := func(tr *Tracker, useAges bool) Estimate {
		a := ages
		if !useAges {
			a = nil
		}
		res, err := tr.StepMasked(1, mixed, nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimates[0]
	}
	deflated := run(mkTracker(), true)
	fresh := run(mkTracker(), false)
	if deflated.Mean == fresh.Mean {
		t.Error("stale-age deflation had no effect on the estimate")
	}
}

// TestStepMaskedValidation: malformed masks, age vectors, and non-finite
// delivered readings are rejected with errors, not panics.
func TestStepMaskedValidation(t *testing.T) {
	tr, pts, obs := maskedTracker(t, 31)
	if _, err := tr.StepMasked(1, obs, make([]bool, 3), nil); err == nil {
		t.Error("short mask accepted")
	}
	if _, err := tr.StepMasked(1, obs, nil, make([]int, 3)); err == nil {
		t.Error("short age vector accepted")
	}
	bad := append([]float64(nil), obs...)
	bad[7] = math.NaN()
	if _, err := tr.StepMasked(1, bad, nil, nil); err == nil {
		t.Error("NaN reading accepted")
	}
	bad[7] = math.Inf(1)
	if _, err := tr.StepMasked(1, bad, nil, nil); err == nil {
		t.Error("Inf reading accepted")
	}
	// A NaN hidden behind the mask is fine: the sensor never delivered.
	present := make([]bool, len(pts))
	for i := range present {
		present[i] = i != 7
	}
	if _, err := tr.StepMasked(1, bad, present, nil); err != nil {
		t.Errorf("masked NaN rejected: %v", err)
	}
}
