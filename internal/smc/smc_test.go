package smc

import (
	"math"
	"testing"

	"fluxtrack/internal/fit"
	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// testModel returns a model plus 90 random sample points on a 30x30 field.
func testModel(t testing.TB, seed uint64) (*fluxmodel.Model, []geom.Point) {
	t.Helper()
	m, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	pts := make([]geom.Point, 90)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	return m, pts
}

// observe synthesizes a model-exact observation for the given sinks and
// stretch factors.
func observe(t testing.TB, m *fluxmodel.Model, pts []geom.Point, sinks []geom.Point, cs []float64) []float64 {
	t.Helper()
	f, err := m.PredictFlux(sinks, cs, pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	m, pts := testModel(t, 1)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil model", Config{SamplePoints: pts, NumUsers: 1}},
		{"no points", Config{Model: m, NumUsers: 1}},
		{"zero users", Config{Model: m, SamplePoints: pts}},
		{"M > N", Config{Model: m, SamplePoints: pts, NumUsers: 1, N: 5, M: 10}},
		{"preset Search.Coarse", Config{Model: m, SamplePoints: pts, NumUsers: 1,
			Search: fit.Options{Coarse: &fit.Coarse{}}}},
		{"NaN VMax", Config{Model: m, SamplePoints: pts, NumUsers: 1, VMax: math.NaN()}},
		{"+Inf VMax", Config{Model: m, SamplePoints: pts, NumUsers: 1, VMax: math.Inf(1)}},
		{"-Inf VMax", Config{Model: m, SamplePoints: pts, NumUsers: 1, VMax: math.Inf(-1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg, 1); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestStepValidation(t *testing.T) {
	m, pts := testModel(t, 2)
	tr, err := New(Config{Model: m, SamplePoints: pts, NumUsers: 1, N: 50, M: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(1, []float64{1, 2}); err == nil {
		t.Error("mismatched observation length must error")
	}
}

func TestTrackStationaryUserConverges(t *testing.T) {
	m, pts := testModel(t, 4)
	truth := geom.Pt(12, 18)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1,
		N: 400, M: 10, VMax: 5,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	obs := observe(t, m, pts, []geom.Point{truth}, []float64{1.5})
	var last Estimate
	for step := 1; step <= 5; step++ {
		res, err := tr.Step(float64(step), obs)
		if err != nil {
			t.Fatal(err)
		}
		last = res.Estimates[0]
		if !last.Active {
			t.Fatalf("step %d: user judged idle with strong traffic", step)
		}
	}
	if d := last.Mean.Dist(truth); d > 1.0 {
		t.Errorf("after 5 rounds mean estimate %v is %.2f from truth, want <= 1.0", last.Mean, d)
	}
	if tr.Steps() != 5 {
		t.Errorf("Steps = %d, want 5", tr.Steps())
	}
}

func TestTrackMovingUser(t *testing.T) {
	m, pts := testModel(t, 6)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1,
		N: 400, M: 10, VMax: 3,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// User moves east at speed 2 per round, within VMax = 3.
	var errs []float64
	for step := 1; step <= 8; step++ {
		truth := geom.Pt(5+2*float64(step), 15)
		obs := observe(t, m, pts, []geom.Point{truth}, []float64{2})
		res, err := tr.Step(float64(step), obs)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, res.Estimates[0].Mean.Dist(truth))
	}
	// Later rounds must track within 2 units (paper Fig 7a: below 2).
	for i := 4; i < len(errs); i++ {
		if errs[i] > 2.0 {
			t.Errorf("round %d tracking error %.2f, want <= 2.0 (all: %v)", i+1, errs[i], errs)
			break
		}
	}
}

func TestTrackTwoUsers(t *testing.T) {
	m, pts := testModel(t, 8)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 2,
		N: 300, M: 10, VMax: 3,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var finalErr []float64
	for step := 1; step <= 8; step++ {
		truths := []geom.Point{
			geom.Pt(4+2*float64(step), 8),
			geom.Pt(26-2*float64(step), 24),
		}
		obs := observe(t, m, pts, truths, []float64{1.5, 2.5})
		res, err := tr.Step(float64(step), obs)
		if err != nil {
			t.Fatal(err)
		}
		if step == 8 {
			for j, est := range res.Estimates {
				// Identities may swap; measure against the nearer truth.
				d := math.Min(est.Mean.Dist(truths[0]), est.Mean.Dist(truths[1]))
				finalErr = append(finalErr, d)
				_ = j
			}
		}
	}
	for j, d := range finalErr {
		if d > 2.5 {
			t.Errorf("user %d final tracking error %.2f, want <= 2.5", j, d)
		}
	}
}

func TestAsynchronousIdleUserNotUpdated(t *testing.T) {
	m, pts := testModel(t, 10)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 2,
		N: 300, M: 10, VMax: 3,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	active := geom.Pt(10, 10)
	idleTruth := geom.Pt(22, 22)

	// Round 1: both users collect, establishing both sample sets. Tracker
	// identities are exchangeable (the paper notes the same), so determine
	// by proximity which tracker slot latched onto which physical user.
	obs := observe(t, m, pts, []geom.Point{active, idleTruth}, []float64{2, 2})
	res1, err := tr.Step(1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Estimates[0].Active || !res1.Estimates[1].Active {
		t.Fatal("both users must be active in round 1")
	}
	idleSlot := 0
	if res1.Estimates[1].Mean.Dist(idleTruth) < res1.Estimates[0].Mean.Dist(idleTruth) {
		idleSlot = 1
	}
	activeSlot := 1 - idleSlot
	if res1.Estimates[idleSlot].Mean.Dist(idleTruth) > 2.5 {
		t.Fatalf("round 1 did not localize the second user: estimates %v / %v, truths %v / %v",
			res1.Estimates[0].Mean, res1.Estimates[1].Mean, active, idleTruth)
	}
	est1 := res1.Estimates[idleSlot].Mean

	// Rounds 2-3: only the first physical user collects; the other slot's
	// fitted stretch collapses and its samples freeze.
	obs = observe(t, m, pts, []geom.Point{active}, []float64{2})
	var res StepResult
	for step := 2; step <= 3; step++ {
		res, err = tr.Step(float64(step), obs)
		if err != nil {
			t.Fatal(err)
		}
	}
	if res.Estimates[idleSlot].Active {
		t.Error("idle user reported active")
	}
	if got := res.Estimates[idleSlot].Mean; got.Dist(est1) > 1e-9 {
		t.Errorf("idle user's estimate moved from %v to %v", est1, got)
	}
	if res.Estimates[activeSlot].Mean.Dist(active) > 1.5 {
		t.Errorf("active user estimate %v too far from %v", res.Estimates[activeSlot].Mean, active)
	}
}

func TestIdleDeltaTGrowsPredictionRadius(t *testing.T) {
	// After idling for several rounds, the user's prediction discs must use
	// the accumulated Δt: a user that reappears far away (but within
	// VMax·Δt_total) is still caught.
	m, pts := testModel(t, 12)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1,
		N: 600, M: 10, VMax: 2,
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	start := geom.Pt(10, 15)
	obs := observe(t, m, pts, []geom.Point{start}, []float64{2})
	if _, err := tr.Step(1, obs); err != nil {
		t.Fatal(err)
	}
	// Idle for rounds 2-5 (zero flux everywhere).
	zero := make([]float64, len(pts))
	for step := 2; step <= 5; step++ {
		if _, err := tr.Step(float64(step), zero); err != nil {
			t.Fatal(err)
		}
	}
	// Round 6: reappears 8 units away; VMax*Δt = 2*5 = 10 >= 8.
	moved := geom.Pt(18, 15)
	res, err := tr.Step(6, observe(t, m, pts, []geom.Point{moved}, []float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimates[0].Active {
		t.Fatal("reappearing user not detected as active")
	}
	if d := res.Estimates[0].Mean.Dist(moved); d > 2.5 {
		t.Errorf("reappearance estimate %v is %.2f away, want <= 2.5", res.Estimates[0].Mean, d)
	}
}

func TestEstimateWeightsNormalized(t *testing.T) {
	m, pts := testModel(t, 14)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1, N: 200, M: 10, VMax: 5,
	}, 15)
	if err != nil {
		t.Fatal(err)
	}
	obs := observe(t, m, pts, []geom.Point{geom.Pt(15, 15)}, []float64{2})
	res, err := tr.Step(1, obs)
	if err != nil {
		t.Fatal(err)
	}
	est := res.Estimates[0]
	if len(est.Samples) != len(est.Weights) {
		t.Fatalf("samples/weights misaligned: %d vs %d", len(est.Samples), len(est.Weights))
	}
	var sum float64
	for _, w := range est.Weights {
		if w < 0 {
			t.Errorf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	// Samples stay inside the field.
	for _, s := range est.Samples {
		if !m.Field().Contains(s) {
			t.Errorf("sample %v outside field", s)
		}
	}
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	m, pts := testModel(t, 16)
	run := func() geom.Point {
		tr, err := New(Config{
			Model: m, SamplePoints: pts, NumUsers: 1, N: 200, M: 5, VMax: 5,
			Search: fit.Options{Seed: 99},
		}, 17)
		if err != nil {
			t.Fatal(err)
		}
		obs := observe(t, m, pts, []geom.Point{geom.Pt(20, 10)}, []float64{1})
		res, err := tr.Step(1, obs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimates[0].Mean
	}
	if a, b := run(), run(); a != b {
		t.Errorf("tracker not deterministic: %v vs %v", a, b)
	}
}

func BenchmarkStepOneUser(b *testing.B) {
	m, pts := testModel(b, 18)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1, N: 200, M: 10, VMax: 5,
	}, 19)
	if err != nil {
		b.Fatal(err)
	}
	obs := observe(b, m, pts, []geom.Point{geom.Pt(15, 15)}, []float64{2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(float64(i+1), obs); err != nil {
			b.Fatal(err)
		}
	}
}
