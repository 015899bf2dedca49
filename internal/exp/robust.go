package exp

import (
	"fluxtrack/internal/fault"
	"fluxtrack/internal/stats"
)

// FigRobust sweeps the tracker through degraded-sensing regimes: permanent
// sensor dropout at increasing fractions, per-round report loss, delayed
// delivery (the paper's §4.E asynchronous updating, exercised for real), and
// stuck readings — plus a combined worst-case. Two users on random walks at
// 10% sampling, the Fig 8a working point. This experiment is not in the
// paper; it quantifies how gracefully the attack degrades when the network
// itself misbehaves.
func FigRobust(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "figRobust",
		Title:   "Tracking under degraded sensing (2 users, 10% sampling)",
		Paper:   "not in the paper; §4.E concedes asynchronous/lossy reports — this sweep measures the cost",
		Columns: []string{"regime", "mean_err", "final_err"},
	}
	regimes := []struct {
		name string
		f    fault.Config
	}{
		{"none", fault.Config{}},
		{"drop10", fault.Config{DropoutFrac: 0.10}},
		{"drop20", fault.Config{DropoutFrac: 0.20}},
		{"drop30", fault.Config{DropoutFrac: 0.30}},
		{"loss10", fault.Config{LossProb: 0.10}},
		{"loss30", fault.Config{LossProb: 0.30}},
		{"delay30x2", fault.Config{DelayProb: 0.30, DelayRounds: 2}},
		{"stuck10", fault.Config{StuckFrac: 0.10}},
		{"combined", fault.Config{DropoutFrac: 0.10, LossProb: 0.10, DelayProb: 0.20, DelayRounds: 2, StuckFrac: 0.05}},
	}

	for _, regime := range regimes {
		regime := regime
		// Every regime runs the same (expID, cell, trial) seeds: identical
		// worlds, trajectories, and trackers, so rows differ only by the
		// faults — the paired design that makes the sweep's deltas meaningful
		// at small trial counts.
		trials, err := runTrials(cfg, "figRobust", 0, cfg.Trials,
			func(trial int, seed uint64) ([]float64, error) {
				fcfg := cfg
				fcfg.Fault = regime.f
				return walkTrial(fcfg, cfg.scenario(defaultScenarioCfg(), seed), seed, 2, 90, false)
			})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, append([]string{regime.name}, meanAndFinal(trials)...))
	}
	return t, nil
}

// meanAndFinal reduces per-trial, per-round errors to the two error
// columns of figRobust and figByzantine: the mean over every round of every
// trial, and the mean final-round error.
func meanAndFinal(trials [][]float64) []string {
	var finals []float64
	for _, perRound := range trials {
		finals = append(finals, perRound[len(perRound)-1])
	}
	return []string{f2(stats.Mean(flatten(trials))), f2(stats.Mean(finals))}
}
