package exp

import (
	"fluxtrack/internal/fault"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
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

// LiarFrac inverts LiarMix: the compromised fraction a LiarMix blend was
// built from. Halving and doubling a normal float are exact, so
// LiarFrac(LiarMix(f)) == f for every f in [0, 1] outside the subnormal
// range.
func LiarFrac(a fault.AdversaryConfig) float64 { return 2 * a.InflateFrac }

// FigByzantine crosses Byzantine attacker fractions with the fit-layer
// defenses: 0%, 10%, and 25% of sensors lying (the LiarMix blend of
// inflaters, deflaters, and replayers) against the undefended fit, Huber
// IRLS down-weighting, leave-one-sensor-out flagging, and both combined.
// Two users on random walks at 10% sampling, the Fig 8a working point.
// Every cell runs the same paired (expID, cell, trial) seeds — identical
// worlds, trajectories, liars — so rows differ only by the defense, and the
// defense's recovery is measurable at small trial counts. Not in the paper;
// it quantifies the attacker-vs-attacker arms race the threat model invites
// (the localizer is itself the adversary of the paper's users).
func FigByzantine(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "figByzantine",
		Title:   "Tracking under Byzantine sensors × robust defenses (2 users, 10% sampling)",
		Paper:   "not in the paper; measures how many lying sensors the fingerprint fit tolerates and what robust fitting buys back",
		Columns: []string{"liars", "defense", "mean_err", "final_err"},
	}
	fracs := []struct {
		name string
		frac float64
	}{
		{"0%", 0},
		{"10%", 0.10},
		{"25%", 0.25},
	}
	defenses := []struct {
		name string
		mode fit.RobustMode
	}{
		{"plain", fit.RobustOff},
		{"huber", fit.RobustHuber},
		{"loso", fit.RobustLOSO},
		{"both", fit.RobustBoth},
	}

	for _, fr := range fracs {
		for _, def := range defenses {
			fr, def := fr, def
			// Cell 0 for every combination: the paired-seed design of
			// figRobust. Identical worlds and liars across defenses, so the
			// defense column is the only moving part within a liar band.
			trials, err := runTrials(cfg, "figByzantine", 0, cfg.Trials,
				func(trial int, seed uint64) ([]float64, error) {
					sc := cfg.scenario(defaultScenarioCfg(), seed)
					src := rng.New(seed + 17)
					trajs, err := randomWalks(sc, 2, 4, cfg.Rounds, src)
					if err != nil {
						return nil, err
					}
					bcfg := cfg
					bcfg.Adversary = LiarMix(fr.frac)
					bcfg.Robust = fit.RobustConfig{Mode: def.mode}
					return trackTrial(bcfg, sc, trajs, 90, 5, false, src)
				})
			if err != nil {
				return Table{}, err
			}
			var all, finals []float64
			for _, perRound := range trials {
				all = append(all, perRound...)
				finals = append(finals, perRound[len(perRound)-1])
			}
			t.Rows = append(t.Rows, []string{
				fr.name, def.name, f2(stats.Mean(all)), f2(stats.Mean(finals)),
			})
		}
	}
	return t, nil
}
