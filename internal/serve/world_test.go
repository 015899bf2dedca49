package serve

import (
	"sync"
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fault"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/traffic"
)

// The serve test world: one modest deployment shared by the whole package
// (calibration is the expensive part), with precomputed clean and
// fault-degraded observation streams so every test replays the exact same
// measurements.
const (
	testUsers   = 3
	testRounds  = 8
	testSensors = 60
	worldSeed   = 33
)

type testWorldT struct {
	sc      *core.Scenario
	sniffer *core.Sniffer
	clean   [][]float64
	deg     []fault.Observation
	initial []geom.Point // round-1 truth, seeds sharded tile ownership
}

var (
	worldOnce sync.Once
	worldVal  *testWorldT
	worldErr  error
)

func testWorld(t *testing.T) *testWorldT {
	t.Helper()
	worldOnce.Do(func() { worldVal, worldErr = buildTestWorld() })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldVal
}

func buildTestWorld() (*testWorldT, error) {
	src := rng.New(worldSeed)
	sc, err := core.NewScenario(core.ScenarioConfig{Nodes: 400}, src)
	if err != nil {
		return nil, err
	}
	sniffer, err := sc.NewSnifferCount(testSensors, src)
	if err != nil {
		return nil, err
	}
	return buildTestWorldFor(sc, sniffer)
}

// buildTestWorldFor generates the deterministic stream set against an
// existing vantage (the HTTP tests reuse their server's own sniffer so
// readings vectors match its sensor count).
func buildTestWorldFor(sc *core.Scenario, sniffer *core.Sniffer) (*testWorldT, error) {
	src := rng.New(worldSeed + 100)
	trajs := make([]mobility.Trajectory, testUsers)
	for i := range trajs {
		w, err := mobility.NewRandomWalk(sc.Field(), src.InRect(sc.Field()), 3, testRounds+1, src)
		if err != nil {
			return nil, err
		}
		trajs[i] = w
	}
	stretches := make([]float64, testUsers)
	for i := range stretches {
		stretches[i] = src.Uniform(1, 3)
	}
	inj, err := sniffer.NewFaultInjector(fault.Config{
		LossProb: 0.2, DelayProb: 0.2, DelayRounds: 2,
	}, worldSeed+1)
	if err != nil {
		return nil, err
	}
	w := &testWorldT{sc: sc, sniffer: sniffer}
	for r := 0; r < testRounds; r++ {
		tm := float64(r + 1)
		us := make([]traffic.User, testUsers)
		truth := make([]geom.Point, testUsers)
		for i := range us {
			truth[i] = sc.Field().Clamp(trajs[i].At(tm))
			us[i] = traffic.User{Pos: truth[i], Stretch: stretches[i], Active: true}
		}
		if r == 0 {
			w.initial = truth
		}
		readings, err := sniffer.Observe(us, 0, src)
		if err != nil {
			return nil, err
		}
		w.clean = append(w.clean, readings)
		deg, err := inj.Apply(readings)
		if err != nil {
			return nil, err
		}
		w.deg = append(w.deg, deg)
	}
	return w, nil
}

// runRounds replays rounds [from, to) of the world's stream — degraded when
// masked — through the tracker and returns the per-round results.
func runRounds(t *testing.T, tr core.StepTracker, w *testWorldT, masked bool, from, to int) []smc.StepResult {
	t.Helper()
	var out []smc.StepResult
	for r := from; r < to; r++ {
		tm := float64(r + 1)
		var res smc.StepResult
		var err error
		if masked {
			d := w.deg[r]
			res, err = tr.StepRound(smc.Round{T: tm, Measured: d.Readings, Present: d.Present, Age: d.Age})
		} else {
			res, err = tr.Step(tm, w.clean[r])
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		out = append(out, res)
	}
	return out
}
