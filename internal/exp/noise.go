package exp

import (
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

// NoiseRobustness sweeps multiplicative measurement noise on the sniffed
// flux readings (extension A5). The paper argues (§3.A) that bounded
// observation windows introduce only minor observation error compared with
// the intrinsic discretization error; this table quantifies how much noise
// the NLS fit actually tolerates.
func NoiseRobustness(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "noise",
		Title:   "Localization error vs measurement noise (2 users, 10% sampling)",
		Paper:   "§3.A: second-level observation windows add only minor error",
		Columns: []string{"noise_sigma", "mean_err", "median_err"},
	}
	sigmas := []float64{0, 0.05, 0.1, 0.2, 0.4}
	cells := make([]int, len(sigmas))
	for i, sigma := range sigmas {
		cells[i] = int(sigma * 100)
	}
	res, err := runCells(cfg, "noise", cells, func(ci, trial int, seed uint64) ([]float64, error) {
		sigma := sigmas[ci]
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		src := rng.New(seed + 17)
		sniffer, err := sc.NewSnifferCount(90, src)
		if err != nil {
			return nil, err
		}
		users := traffic.RandomUsers(sc.Field(), 2, 1, 3, src)
		if _, err := sniffer.Observe(users, sigma, src); err != nil {
			return nil, err
		}
		r, err := sniffer.Localize(2, cfg.searchOpts(sparseSearchSamples(cfg), seed), src)
		if err != nil {
			return nil, err
		}
		truths := []geom.Point{users[0].Pos, users[1].Pos}
		return matchErrors(r.Best[0].Positions, truths), nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, sigma := range sigmas {
		t.Rows = append(t.Rows, errRow(f2(sigma), res[ci]))
	}
	return t, nil
}
