package exp

import (
	"fmt"

	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
)

// FigCoarse quantifies the accuracy cost of the coarse-to-fine candidate
// search (internal/fingerprint, fit.Coarse) as the shortlist size TopK
// shrinks. It is an extension figure — the paper always searches every
// candidate — and doubles as the registry-level differential harness for the
// prestage: each trial runs instant localization twice on identical
// candidate draws, once exact and once shortlisted, and compares the top-1
// composition position for position. The final row runs with TopK at the
// full candidate count, where the shortlist is the identity and agreement
// must be exactly 100% — anything else is a determinism bug, not noise.
//
// Columns: per-user shortlist size, mean coarse localization error (2 users,
// 90 sampling nodes), the fraction of (trial, user) top-1 positions that
// match the exact search bit for bit, and the final-round tracking error of
// a coarse tracker on the standard two-user random-walk scenario.
func FigCoarse(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "figCoarse",
		Title:   "Coarse-to-fine search: accuracy vs shortlist size (2 users, 90 nodes)",
		Paper:   "extension: the paper searches all candidates; full-K row must agree 100%",
		Columns: []string{"topK", "loc_err", "top1_agree", "track_err"},
	}
	// Each shortlist size is also its cell id; 0 means full (TopK =
	// candidate count).
	topKs := []int{16, 32, 64, 128, 0}

	// Each trial yields one value per table column after topK: loc_err,
	// top1_agree and track_err.
	res, err := runCells(cfg, "figCoarse", topKs, func(ci, trial int, seed uint64) ([]float64, error) {
		topK := topKs[ci]
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		src := rng.New(seed + 17)
		sniffer, err := sc.NewSnifferCount(90, src)
		if err != nil {
			return nil, err
		}
		truths := []geom.Point{src.InRect(sc.Field()), src.InRect(sc.Field())}
		stretches := []float64{src.Uniform(1, 3), src.Uniform(1, 3)}
		if _, err := sniffer.Observe(activeUsers(truths, stretches), 0, src); err != nil {
			return nil, err
		}
		db, err := sniffer.NewFingerprintDB(cfg.Coarse, cfg.Workers, cfg.Metrics)
		if err != nil {
			return nil, err
		}

		// Exact and coarse localization consume candidate draws from twin
		// sources seeded identically, so both searches rank the same
		// candidate sets and their top-1 positions are directly comparable.
		candSeed := seed + 99
		opts := cfg.searchOpts(cfg.Samples, seed+1)
		exact, err := sniffer.Localize(2, opts, rng.New(candSeed))
		if err != nil {
			return nil, err
		}
		kk := topK
		if kk <= 0 {
			kk = cfg.Samples
		}
		opts.Coarse = &fit.Coarse{DB: db, TopK: kk}
		coarse, err := sniffer.Localize(2, opts, rng.New(candSeed))
		if err != nil {
			return nil, err
		}
		locErr := stats.Mean(matchErrors(coarse.Best[0].Positions, truths))
		var agree float64
		for j, pos := range exact.Best[0].Positions {
			if coarse.Best[0].Positions[j] == pos {
				agree++
			}
		}
		agree /= float64(len(exact.Best[0].Positions))

		// Tracking with the same shortlist size: the tracker builds its own
		// database (core.TrackerConfig.Coarse) since its candidates are the
		// SMC prediction samples, TrackN per user per round.
		tcfg := cfg
		tcfg.Coarse = cfg.Coarse
		tcfg.Coarse.Enabled = true
		tcfg.Coarse.TopK = topK
		if topK <= 0 {
			tcfg.Coarse.TopK = cfg.TrackN
		}
		trajs, err := randomWalks(sc, 2, 4, cfg.Rounds, src)
		if err != nil {
			return nil, err
		}
		run, err := trackTrial(tcfg, sc, trajs, 90, false, src)
		if err != nil {
			return nil, err
		}
		perRound := run.errs()
		return []float64{locErr, agree, perRound[len(perRound)-1]}, nil
	})
	if err != nil {
		return Table{}, err
	}

	for ci, topK := range topKs {
		label := "full"
		if topK > 0 {
			label = fmt.Sprintf("%d", topK)
		}
		m := trialMeans(res[ci])
		t.Rows = append(t.Rows, []string{label, f2(m[0]), fmt.Sprintf("%.1f%%", 100*m[1]), f2(m[2])})
	}
	return t, nil
}
