package exp

import (
	"math"
	"strconv"
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/rng"
)

// robustConfig is the effort level for the degraded-sensing tests: small
// enough for CI, large enough that the dropout sweep's error ordering is not
// pure noise (paired seeds across regimes do most of the variance
// reduction — see FigRobust).
func robustConfig() Config {
	return Config{Seed: 5, Trials: 2, Samples: 150, TrackN: 60, TrackM: 10, Rounds: 4}
}

// TestFigRobustWorkerInvariance is the acceptance criterion for the fault
// layer's determinism: the figRobust table must render byte-identical at
// Workers=1 and Workers=8. Fault draws are keyed by (injector seed, round,
// sensor, kind), never by a shared sequential stream, so worker scheduling
// cannot reorder them.
func TestFigRobustWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness suite skipped in -short mode")
	}
	cfg := robustConfig()
	cfg.Workers = 1
	seq, err := FigRobust(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := FigRobust(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Errorf("figRobust differs across worker counts:\n--- Workers=1\n%s--- Workers=8\n%s",
			seq.Render(), par.Render())
	}
}

// TestDropoutDegradesGracefully is the acceptance criterion for graceful
// degradation: up to 30% permanent sensor dropout the tracker must keep
// producing finite errors — no NaN, no panic, no failed trial — and the
// mean error must not collapse or explode. Monotonicity in expectation is
// checked loosely: the clean regime must not be clearly worse than heavy
// dropout.
func TestDropoutDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness suite skipped in -short mode")
	}
	cfg := robustConfig()
	fracs := []float64{0, 0.15, 0.30}
	means := make([]float64, len(fracs))
	for fi, frac := range fracs {
		// Same trial seeds for every fraction (paired design): the worlds
		// match, only the dropout differs.
		trials, err := runTrials(cfg, "dropoutSweep", 0, cfg.Trials,
			func(trial int, seed uint64) ([]float64, error) {
				sc := mustScenario(defaultScenarioCfg(), seed)
				src := rng.New(seed + 17)
				trajs, err := randomWalks(sc, 2, 4, cfg.Rounds, src)
				if err != nil {
					return nil, err
				}
				fcfg := cfg
				fcfg.Fault = fault.Config{DropoutFrac: frac}
				run, err := trackTrial(fcfg, sc, trajs, 90, false, src)
				return run.errs(), err
			})
		if err != nil {
			t.Fatalf("dropout %.2f: %v", frac, err)
		}
		var sum float64
		var n int
		for _, perRound := range trials {
			for _, e := range perRound {
				if math.IsNaN(e) || math.IsInf(e, 0) {
					t.Fatalf("dropout %.2f: non-finite round error %v", frac, e)
				}
				sum += e
				n++
			}
		}
		means[fi] = sum / float64(n)
	}
	diameter := mustScenario(defaultScenarioCfg(), 1).Field().Diameter()
	for fi, m := range means {
		if m >= diameter {
			t.Errorf("dropout %.2f: mean error %.2f not better than guessing", fracs[fi], m)
		}
	}
	// Degradation should be roughly monotone; tolerate sampling noise but
	// fail if heavy dropout somehow *beats* the clean stream decisively.
	if means[len(means)-1] < means[0]-1.0 {
		t.Errorf("30%% dropout (%.2f) decisively beat the clean stream (%.2f)", means[len(means)-1], means[0])
	}
	t.Logf("mean error by dropout: 0%%=%.2f 15%%=%.2f 30%%=%.2f", means[0], means[1], means[2])
}

// TestFigRobustErrorsOrdered sanity-checks the rendered sweep itself: every
// cell parses as a finite number and the clean regime's mean error is the
// best or near-best row (within slack), i.e. faults cost accuracy, they
// don't mysteriously add it.
func TestFigRobustErrorsOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness suite skipped in -short mode")
	}
	tbl, err := FigRobust(robustConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("figRobust has %d rows, want 9 regimes", len(tbl.Rows))
	}
	var clean float64
	var worst float64
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("regime %s: unparsable cell %q", row[0], cell)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("regime %s: non-finite cell %v", row[0], v)
			}
		}
		mean, _ := strconv.ParseFloat(row[1], 64)
		if row[0] == "none" {
			clean = mean
		}
		if mean > worst {
			worst = mean
		}
	}
	if clean > worst+0.5 {
		t.Errorf("clean regime (%.2f) worse than every degraded regime (worst %.2f)", clean, worst)
	}
}

// TestConcurrentFaultTrialsRaceClean drives fault-injected trials through
// the PR1 worker pool at high concurrency. Its real assertion is the -race
// detector in CI: injectors are per-trial state, so no two workers may ever
// share one.
func TestConcurrentFaultTrialsRaceClean(t *testing.T) {
	cfg := Config{Seed: 3, Trials: 8, Samples: 100, TrackN: 30, TrackM: 5, Rounds: 3, Workers: 8}
	cfg.Fault = fault.Config{DropoutFrac: 0.2, LossProb: 0.2, DelayProb: 0.3, DelayRounds: 1, StuckFrac: 0.1}
	trials, err := runTrials(cfg, "raceFault", 0, cfg.Trials,
		func(trial int, seed uint64) ([]float64, error) {
			sc := mustScenario(defaultScenarioCfg(), seed)
			src := rng.New(seed + 17)
			trajs, err := randomWalks(sc, 1, 4, cfg.Rounds, src)
			if err != nil {
				return nil, err
			}
			run, err := trackTrial(cfg, sc, trajs, 90, false, src)
			return run.errs(), err
		})
	if err != nil {
		t.Fatal(err)
	}
	for ti, perRound := range trials {
		if len(perRound) != cfg.Rounds {
			t.Errorf("trial %d produced %d rounds, want %d", ti, len(perRound), cfg.Rounds)
		}
		for _, e := range perRound {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Errorf("trial %d: non-finite error %v", ti, e)
			}
		}
	}
}
