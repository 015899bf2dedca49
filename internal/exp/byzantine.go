package exp

import (
	"fmt"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fit"
)

// LiarMix returns the standard Byzantine attack mix used by the figByzantine
// sweep and the fluxbench/fluxsim -liars flag: of the compromised fraction,
// half inflate their readings, a quarter deflate, and a quarter replay a
// stale round. frac is the total compromised fraction in [0, 1]; 0 returns
// the all-honest zero config.
func LiarMix(frac float64) fault.AdversaryConfig {
	if frac <= 0 {
		return fault.AdversaryConfig{}
	}
	return fault.AdversaryConfig{
		InflateFrac: frac / 2,
		DeflateFrac: frac / 4,
		ReplayFrac:  frac / 4,
	}
}

// FigByzantine is the defense's breakdown curve: 0% to 40% of sensors
// lying in 5% steps (the LiarMix blend of inflaters, deflaters, and
// replayers) against the undefended fit and the robust defense (LOSO flags,
// then Huber IRLS). Two users on random walks at 10% sampling, the Fig 8a
// working point. Every cell runs the same paired (expID, cell, trial) seeds
// — identical worlds, trajectories, liars — so rows differ only by the
// defense, and the defense's recovery is measurable at small trial counts.
// Not in the paper; it quantifies the attacker-vs-attacker arms race the
// threat model invites (the localizer is itself the adversary of the
// paper's users).
func FigByzantine(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "figByzantine",
		Title:   "Tracking under Byzantine sensors × robust defenses (2 users, 10% sampling)",
		Paper:   "not in the paper; measures how many lying sensors the fingerprint fit tolerates and what robust fitting buys back",
		Columns: []string{"liars", "defense", "mean_err", "final_err"},
	}
	defenses := []struct {
		name string
		mode fit.RobustMode
	}{
		{"plain", fit.RobustOff},
		{"both", fit.RobustBoth},
	}

	for pct := 0; pct <= 40; pct += 5 {
		for _, def := range defenses {
			frac := float64(pct) / 100
			// Cell 0 for every combination: the paired-seed design of
			// figRobust. Identical worlds and liars across defenses, so the
			// defense column is the only moving part within a liar band.
			trials, err := runTrials(cfg, "figByzantine", 0, cfg.Trials,
				func(trial int, seed uint64) ([]float64, error) {
					bcfg := cfg
					bcfg.Liars = frac
					bcfg.Robust = fit.RobustConfig{Mode: def.mode}
					return walkTrial(bcfg, cfg.scenario(defaultScenarioCfg(), seed), seed, 2, 90, false)
				})
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d%%", pct), def.name}, meanAndFinal(trials)...))
		}
	}
	return t, nil
}
