package core

import (
	"sync"
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

// fuzzScenario caches one small scenario across fuzz iterations: the
// adversary/defense plumbing under test is downstream of scenario
// construction, and rebuilding 200 nodes per input would dominate the fuzz
// budget.
var fuzzScenario = sync.OnceValues(func() (*Scenario, error) {
	return NewScenario(ScenarioConfig{
		Field: geom.Square(16), Nodes: 200, Radius: 2.4,
	}, rng.New(1))
})

// FuzzAdversaryMaskedFit drives the full hostile pipeline end to end —
// observe, Byzantine tampering, benign fault injection, masked robust
// localization — under fuzz-chosen adversary mixes, fault rates, and defense
// modes. The pipeline must never panic and must either return a structured
// error or estimates inside the field.
func FuzzAdversaryMaskedFit(f *testing.F) {
	f.Add(uint64(1), byte(40), byte(30), byte(20), byte(0), byte(0))
	f.Add(uint64(7), byte(255), byte(0), byte(0), byte(3), byte(60))
	f.Add(uint64(42), byte(0), byte(0), byte(255), byte(2), byte(200))
	f.Fuzz(func(t *testing.T, seed uint64, inflate, deflate, replay, mode, loss byte) {
		sc, err := fuzzScenario()
		if err != nil {
			t.Fatal(err)
		}
		// Map bytes onto valid fractions, normalizing when the sum
		// overflows 1 — config validation is covered by unit tests; here we
		// want deep, valid-but-extreme pipelines.
		fi, fd, fr := float64(inflate)/255, float64(deflate)/255, float64(replay)/255
		if s := fi + fd + fr; s > 1 {
			// The slack keeps the normalized sum under 1 despite rounding.
			s *= 1 + 1e-9
			fi, fd, fr = fi/s, fd/s, fr/s
		}
		advCfg := fault.AdversaryConfig{InflateFrac: fi, DeflateFrac: fd, ReplayFrac: fr}
		robust := fit.RobustConfig{Mode: []fit.RobustMode{fit.RobustOff, fit.RobustBoth}[mode%2]}

		src := rng.New(seed)
		users := traffic.RandomUsers(sc.Field(), 1+int(seed%2), 1, 3, src)
		sniffer, err := sc.NewSniffer(0.25, src)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := sniffer.NewAdversary(advCfg, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		inj, err := sniffer.NewFaultInjector(fault.Config{LossProb: float64(loss%128) / 256}, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			readings, err := sniffer.Observe(users, 0.05, src)
			if err != nil {
				t.Fatal(err)
			}
			readings, err = adv.Apply(readings)
			if err != nil {
				t.Fatal(err)
			}
			deg, err := inj.Apply(readings)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sniffer.LocalizeMasked(deg, len(users),
				fit.Options{Samples: 40, TopM: 3, Robust: robust}, src)
			if err != nil {
				// A fully-degraded window can leave too few samples to fit;
				// a structured error is the contract, a panic is the bug.
				continue
			}
			for _, pos := range res.Best[0].Positions {
				if !sc.Field().Contains(pos) {
					t.Fatalf("estimate %v outside field %v", pos, sc.Field())
				}
			}
		}
	})
}
