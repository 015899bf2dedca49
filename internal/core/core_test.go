package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

func defaultScenario(t testing.TB, seed uint64) *Scenario {
	t.Helper()
	sc, err := NewScenario(ScenarioConfig{}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioDefaults(t *testing.T) {
	sc := defaultScenario(t, 1)
	if sc.Network().Len() != 900 {
		t.Errorf("node count = %d, want 900", sc.Network().Len())
	}
	if sc.Field() != geom.Square(30) {
		t.Errorf("field = %v, want 30x30", sc.Field())
	}
	if sc.Network().Radius() != 2.4 {
		t.Errorf("radius = %v, want 2.4", sc.Network().Radius())
	}
	if d := sc.Network().AvgDegree(); d < 12 || d > 22 {
		t.Errorf("average degree = %v, want ~18", d)
	}
	if sc.Calibration().HopLength <= 0 {
		t.Error("calibration hop length not positive")
	}
	if sc.Model() == nil || sc.Simulator() == nil {
		t.Error("scenario accessors returned nil")
	}
}

func TestScenarioCustomConfig(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{
		Nodes: 300, Radius: 3, Deployment: deploy.UniformRandom, SmoothPasses: -1,
	}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Network().Len() != 300 {
		t.Errorf("node count = %d, want 300", sc.Network().Len())
	}
	// SmoothPasses -1 disables smoothing: GroundFlux equals raw flux.
	users := []traffic.User{{Pos: geom.Pt(15, 15), Stretch: 2, Active: true}}
	gf, err := sc.GroundFlux(users)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sc.Simulator().Flux(users)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gf {
		if gf[i] != raw[i] {
			t.Fatal("SmoothPasses=-1 still smoothed the flux")
		}
	}
}

func TestGroundFluxSmoothing(t *testing.T) {
	sc := defaultScenario(t, 3)
	users := []traffic.User{{Pos: geom.Pt(15, 15), Stretch: 2, Active: true}}
	smoothed, err := sc.GroundFlux(users)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sc.Simulator().Flux(users)
	if err != nil {
		t.Fatal(err)
	}
	rawPeak, smPeak := slices.Max(raw), slices.Max(smoothed)
	if smPeak >= rawPeak {
		t.Errorf("smoothing did not reduce the peak: %v >= %v", smPeak, rawPeak)
	}
	// Total flux is redistributed, not created: totals stay comparable.
	var rawSum, smSum float64
	for i := range raw {
		rawSum += raw[i]
		smSum += smoothed[i]
	}
	if math.Abs(rawSum-smSum)/rawSum > 0.2 {
		t.Errorf("smoothing changed total flux too much: %v vs %v", smSum, rawSum)
	}
}

// TestScenarioConfigValidation: a negative or non-finite node count,
// radius or field extent is an error instead of a silent default, while
// zero still selects the default and SmoothPasses -1 still disables
// smoothing.
func TestScenarioConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name string
		cfg  ScenarioConfig
		ok   bool
	}{
		{"zero radius and field", ScenarioConfig{Nodes: 100}, true},
		{"explicit values", ScenarioConfig{Nodes: 100, Radius: 4, Field: geom.Square(12), SmoothPasses: -1}, true},
		{"offset field", ScenarioConfig{Nodes: 100, Field: geom.NewRect(geom.Pt(5, 5), geom.Pt(20, 15))}, true},
		{"negative nodes", ScenarioConfig{Nodes: -1}, false},
		{"negative radius", ScenarioConfig{Nodes: 100, Radius: -2.4}, false},
		{"NaN radius", ScenarioConfig{Nodes: 100, Radius: nan}, false},
		{"+Inf radius", ScenarioConfig{Nodes: 100, Radius: inf}, false},
		{"-Inf radius", ScenarioConfig{Nodes: 100, Radius: -inf}, false},
		{"negative field side", ScenarioConfig{Nodes: 100, Field: geom.Square(-30)}, false},
		{"zero-height field", ScenarioConfig{Nodes: 100, Field: geom.Rect{Max: geom.Pt(30, 0)}}, false},
		{"NaN field side", ScenarioConfig{Nodes: 100, Field: geom.Square(nan)}, false},
		{"+Inf field side", ScenarioConfig{Nodes: 100, Field: geom.Square(inf)}, false},
		{"-Inf field corner", ScenarioConfig{Nodes: 100, Field: geom.Rect{Min: geom.Pt(-inf, 0), Max: geom.Pt(30, 30)}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc, err := NewScenario(tt.cfg, rng.New(3))
			if !tt.ok {
				if err == nil {
					t.Fatalf("NewScenario(%+v) accepted an invalid config", tt.cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sc.Network().Len() != tt.cfg.Nodes {
				t.Errorf("node count = %d, want %d", sc.Network().Len(), tt.cfg.Nodes)
			}
			if d := sc.Network().AvgDegree(); !(d > 0) {
				t.Errorf("average degree = %v, want a connected world", d)
			}
		})
	}
}

func TestNewSnifferValidation(t *testing.T) {
	sc := defaultScenario(t, 4)
	src := rng.New(5)
	if _, err := sc.NewSniffer(0, src); err == nil {
		t.Error("zero fraction must error")
	}
	if _, err := sc.NewSniffer(1.5, src); err == nil {
		t.Error("fraction > 1 must error")
	}
	// A non-finite fraction is rejected by name, not by the sampling count
	// it would overflow into.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := sc.NewSniffer(f, src)
		if err == nil || !strings.Contains(err.Error(), "sniffer fraction") {
			t.Errorf("NewSniffer(%v): got %v, want a sniffer-fraction error", f, err)
		}
	}
	sn, err := sc.NewSniffer(0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Nodes()) != 90 {
		t.Errorf("10%% sniffer has %d nodes, want 90", len(sn.Nodes()))
	}
	if len(sn.Points()) != 90 {
		t.Errorf("points length %d, want 90", len(sn.Points()))
	}
}

func TestObserveAndLocalizeEndToEnd(t *testing.T) {
	sc := defaultScenario(t, 6)
	src := rng.New(7)
	sn, err := sc.NewSniffer(0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	users := []traffic.User{{Pos: geom.Pt(12, 17), Stretch: 2, Active: true}}
	obs, err := sn.Observe(users, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 90 {
		t.Fatalf("observation length %d, want 90", len(obs))
	}
	res, err := sn.Localize(1, fit.Options{Samples: 2000, TopM: 10}, src)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Best[0].Positions[0]
	if d := got.Dist(users[0].Pos); d > 3 {
		t.Errorf("localization error %.2f, want <= 3 (estimate %v)", d, got)
	}
}

func TestLocalizeWithoutObserve(t *testing.T) {
	sc := defaultScenario(t, 8)
	sn, err := sc.NewSniffer(0.1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Localize(1, fit.Options{}, rng.New(10)); err == nil {
		t.Error("Localize before Observe must error")
	}
}

func TestObserveNoise(t *testing.T) {
	sc := defaultScenario(t, 11)
	src := rng.New(12)
	sn, err := sc.NewSniffer(0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	users := []traffic.User{{Pos: geom.Pt(15, 15), Stretch: 2, Active: true}}
	clean, err := sn.Observe(users, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := sn.Observe(users, 0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range clean {
		if clean[i] != noisy[i] {
			diff++
		}
	}
	if diff < len(clean)/2 {
		t.Errorf("noise changed only %d/%d readings", diff, len(clean))
	}
	// A negative or non-finite sigma is an error, not a noise-free round.
	for _, sigma := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := sn.Observe(users, sigma, src); err == nil || !strings.Contains(err.Error(), "noise sigma") {
			t.Errorf("Observe(sigma %v): got %v, want a noise-sigma error", sigma, err)
		}
	}
}

func TestTrackerEndToEnd(t *testing.T) {
	sc := defaultScenario(t, 13)
	src := rng.New(14)
	sn, err := sc.NewSniffer(0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sn.NewTracker(1, TrackerConfig{N: 300, M: 10, VMax: 5}, 15)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr float64
	for step := 1; step <= 6; step++ {
		pos := geom.Pt(5+2*float64(step), 15)
		obs, err := sn.Observe([]traffic.User{{Pos: pos, Stretch: 2, Active: true}}, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tracker.Step(float64(step), obs)
		if err != nil {
			t.Fatal(err)
		}
		lastErr = res.Estimates[0].Mean.Dist(pos)
	}
	if lastErr > 3 {
		t.Errorf("final tracking error %.2f, want <= 3", lastErr)
	}
}

func TestSnifferAccessorsCopy(t *testing.T) {
	sc := defaultScenario(t, 16)
	sn, err := sc.NewSniffer(0.05, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	nodes := sn.Nodes()
	nodes[0] = -42
	if sn.Nodes()[0] == -42 {
		t.Error("Nodes returned aliasing storage")
	}
	pts := sn.Points()
	pts[0] = geom.Pt(-1, -1)
	if sn.Points()[0] == geom.Pt(-1, -1) {
		t.Error("Points returned aliasing storage")
	}
}
