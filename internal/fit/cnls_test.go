package fit

import (
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

func cnlsSetup(t testing.TB, seed uint64) (*fluxmodel.Model, []geom.Point) {
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

func cnlsObserve(t testing.TB, m *fluxmodel.Model, pts []geom.Point, sink geom.Point, c float64) []float64 {
	t.Helper()
	f, err := m.PredictFlux([]geom.Point{sink}, []float64{c}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewCNLSTrackerValidation(t *testing.T) {
	m, pts := cnlsSetup(t, 1)
	if _, err := NewCNLSTracker(nil, pts, 5); err == nil {
		t.Error("nil model must error")
	}
	if _, err := NewCNLSTracker(m, nil, 5); err == nil {
		t.Error("no points must error")
	}
	if _, err := NewCNLSTracker(m, pts, 0); err == nil {
		t.Error("zero vmax must error")
	}
	if _, err := NewCNLSTracker(m, pts, 5); err != nil {
		t.Fatal(err)
	}
}

func TestCNLSStepValidation(t *testing.T) {
	m, pts := cnlsSetup(t, 2)
	tr, err := NewCNLSTracker(m, pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(1, []float64{1}, rng.New(3)); err == nil {
		t.Error("observation length mismatch must error")
	}
}

func TestCNLSTracksWithOracleSeed(t *testing.T) {
	m, pts := cnlsSetup(t, 3)
	tr, err := NewCNLSTracker(m, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	start := geom.Pt(8, 15)
	tr.Seed(start, 0)
	src := rng.New(4)
	var lastErr float64
	for step := 1; step <= 10; step++ {
		truth := geom.Pt(8+1.5*float64(step), 15)
		pos, err := tr.Step(float64(step), cnlsObserve(t, m, pts, truth, 2), src)
		if err != nil {
			t.Fatal(err)
		}
		lastErr = pos.Dist(truth)
	}
	if lastErr > 2.0 {
		t.Errorf("CNLS with oracle seed ended %.2f from truth, want <= 2.0", lastErr)
	}
}

func TestCNLSRespectsMotionConstraint(t *testing.T) {
	m, pts := cnlsSetup(t, 5)
	tr, err := NewCNLSTracker(m, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Seed(geom.Pt(5, 5), 0)
	src := rng.New(6)
	// The observation places the user across the field; the constrained
	// step must not jump further than vmax * dt = 2.
	pos, err := tr.Step(1, cnlsObserve(t, m, pts, geom.Pt(25, 25), 2), src)
	if err != nil {
		t.Fatal(err)
	}
	if d := pos.Dist(geom.Pt(5, 5)); d > 2+1e-9 {
		t.Errorf("constrained step moved %.2f > vmax*dt = 2", d)
	}
}

func TestCNLSFirstStepUnconstrained(t *testing.T) {
	// Without a seed, the first step may roam the whole field and should
	// land reasonably near a strong source.
	m, pts := cnlsSetup(t, 7)
	tr, err := NewCNLSTracker(m, pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth := geom.Pt(20, 12)
	pos, err := tr.Step(1, cnlsObserve(t, m, pts, truth, 2), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// Multistart LM is unreliable (the point of the comparison); only
	// require it to beat the expected random-guess distance.
	if d := pos.Dist(truth); d > 12 {
		t.Errorf("unseeded CNLS landed %.2f away, want < 12 (random-guess ~11.7)", d)
	}
}
