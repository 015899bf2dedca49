package exp

import (
	"fmt"

	"fluxtrack/internal/brief"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

// Fig4 regenerates Figure 4 (with the Figure 1 workload): three mobile
// users collect data simultaneously; the recursive briefing method peels
// one user per round off the full network flux map. Rows report each
// round's detection, its match error against the true users, and the
// residual flux energy.
func Fig4(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "fig4",
		Title:   "Recursive briefing of the network flux (3 users, full map)",
		Paper:   "each round identifies one dominating user; residual flux shrinks; positions match the true distribution",
		Columns: []string{"round", "match_err(mean)", "stretch(mean)", "residual_energy_frac(mean)"},
	}

	type roundAgg struct {
		matchErr, stretch, resFrac []float64
	}
	rounds := make([]roundAgg, 3)

	// One trial's per-round detections; hasMatch/hasResFrac mirror the
	// conditional appends of the sequential reduction.
	type roundResult struct {
		matchErr   float64
		hasMatch   bool
		stretch    float64
		resFrac    float64
		hasResFrac bool
	}
	trials, err := runTrials(cfg, "fig4", 0, cfg.Trials,
		func(trial int, seed uint64) ([]roundResult, error) {
			src := rng.New(seed)
			sc := cfg.scenario(defaultScenarioCfg(), seed)
			users := traffic.RandomUsers(sc.Field(), 3, 1, 3, src)
			flux, err := sc.GroundFlux(users)
			if err != nil {
				return nil, err
			}
			initial := traffic.TotalEnergy(flux)
			dets, err := brief.Brief(sc.Network(), sc.Model(), flux, 3)
			if err != nil {
				return nil, err
			}
			matched := make([]bool, len(users))
			out := make([]roundResult, len(dets))
			for r, d := range dets {
				// Match this detection to the nearest unmatched true user.
				best, bestD := -1, 0.0
				for j, u := range users {
					if matched[j] {
						continue
					}
					dd := d.Pos.Dist(u.Pos)
					if best < 0 || dd < bestD {
						best, bestD = j, dd
					}
				}
				if best >= 0 {
					matched[best] = true
					out[r].matchErr, out[r].hasMatch = bestD, true
				}
				out[r].stretch = d.Stretch
				if initial > 0 {
					out[r].resFrac, out[r].hasResFrac = d.ResidualEnergy/initial, true
				}
			}
			return out, nil
		})
	if err != nil {
		return Table{}, err
	}
	for _, dets := range trials {
		for r, d := range dets {
			if r >= len(rounds) {
				break
			}
			if d.hasMatch {
				rounds[r].matchErr = append(rounds[r].matchErr, d.matchErr)
			}
			rounds[r].stretch = append(rounds[r].stretch, d.stretch)
			if d.hasResFrac {
				rounds[r].resFrac = append(rounds[r].resFrac, d.resFrac)
			}
		}
	}

	for r := range rounds {
		if len(rounds[r].stretch) == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r+1),
			f2(stats.Mean(rounds[r].matchErr)),
			f2(stats.Mean(rounds[r].stretch)),
			f3(stats.Mean(rounds[r].resFrac)),
		})
	}
	return t, nil
}
