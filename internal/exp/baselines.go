package exp

import (
	"math"

	"fluxtrack/internal/ekf"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

// BaselineEKF compares the Sequential Monte Carlo tracker against the two
// classical techniques the paper's related work cites for remote tracking
// (ablation A6): the Extended Kalman Filter and constrained NLS (CNLS).
// Both are linearized local methods; on the piecewise-smooth flux objective
// they only work from a good initialization, while the SMC tracker
// self-bootstraps.
func BaselineEKF(cfg Config) (Table, error) {
	if err := cfg.ownTrackers(); err != nil {
		return Table{}, err
	}
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "baseline-ekf",
		Title:   "SMC tracker vs EKF/CNLS baselines (1 user, 10% sampling, random walk)",
		Paper:   "§2/§4.A: linearized solvers need differentiability and good starts; SMC does not",
		Columns: []string{"tracker", "final_err_mean", "final_err_p90", "lost_frac(err>5)"},
	}

	type cell struct {
		errs []float64
		lost int
	}
	var smcCell, ekfBlind, ekfOracle, cnlsBlind, cnlsOracle cell

	// One trial's final-round error per tracker variant.
	type trialErrs struct {
		smc, ekfB, ekfO, cnlsB, cnlsO float64
	}
	trials, err := runTrials(cfg, "ablA6", 0, cfg.Trials, func(trial int, seed uint64) (trialErrs, error) {
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		src := rng.New(seed + 17)
		walk, err := mobility.NewRandomWalk(sc.Field(), src.InRect(sc.Field()), 3, cfg.Rounds+1, src)
		if err != nil {
			return trialErrs{}, err
		}
		sniffer, err := sc.NewSnifferCount(90, src)
		if err != nil {
			return trialErrs{}, err
		}
		stretch := src.Uniform(1, 3)

		// SMC tracker (blind initialization, as always).
		tracker, err := sniffer.NewTracker(1, cfg.tracker(5), seed+1)
		if err != nil {
			return trialErrs{}, err
		}
		// EKF blind (field-center initialization) and EKF oracle (started
		// at the walk's true origin — the only regime where it is fair).
		blind, err := ekf.New(ekf.Config{
			Model: sc.Model(), SamplePoints: sniffer.Points(),
		})
		if err != nil {
			return trialErrs{}, err
		}
		oracle, err := ekf.New(ekf.Config{
			Model: sc.Model(), SamplePoints: sniffer.Points(),
			InitPos: walk.At(0), InitUncertainty: 2,
		})
		if err != nil {
			return trialErrs{}, err
		}
		// CNLS, blind and seeded at the true origin.
		cnlsB, err := fit.NewCNLSTracker(sc.Model(), sniffer.Points(), 5)
		if err != nil {
			return trialErrs{}, err
		}
		cnlsO, err := fit.NewCNLSTracker(sc.Model(), sniffer.Points(), 5)
		if err != nil {
			return trialErrs{}, err
		}
		cnlsO.Seed(walk.At(0), 0)

		var smcErr, blindErr, oracleErr, cnlsBErr, cnlsOErr float64
		for round := 1; round <= cfg.Rounds; round++ {
			tm := float64(round)
			truth := walk.At(tm)
			obs, err := sniffer.Observe([]traffic.User{
				{Pos: truth, Stretch: stretch, Active: true},
			}, 0, src)
			if err != nil {
				return trialErrs{}, err
			}
			res, err := tracker.Step(tm, obs)
			if err != nil {
				return trialErrs{}, err
			}
			smcErr = res.Estimates[0].Mean.Dist(truth)
			bp, err := blind.Step(1, obs)
			if err != nil {
				return trialErrs{}, err
			}
			blindErr = bp.Dist(truth)
			op, err := oracle.Step(1, obs)
			if err != nil {
				return trialErrs{}, err
			}
			oracleErr = op.Dist(truth)
			cb, err := cnlsB.Step(tm, obs, src)
			if err != nil {
				return trialErrs{}, err
			}
			cnlsBErr = cb.Dist(truth)
			co, err := cnlsO.Step(tm, obs, src)
			if err != nil {
				return trialErrs{}, err
			}
			cnlsOErr = co.Dist(truth)
		}
		return trialErrs{smc: smcErr, ekfB: blindErr, ekfO: oracleErr, cnlsB: cnlsBErr, cnlsO: cnlsOErr}, nil
	})
	if err != nil {
		return Table{}, err
	}
	record := func(c *cell, e float64) {
		c.errs = append(c.errs, e)
		if e > 5 {
			c.lost++
		}
	}
	for _, tr := range trials {
		record(&smcCell, tr.smc)
		record(&ekfBlind, tr.ekfB)
		record(&ekfOracle, tr.ekfO)
		record(&cnlsBlind, tr.cnlsB)
		record(&cnlsOracle, tr.cnlsO)
	}

	addRow := func(name string, c cell) {
		t.Rows = append(t.Rows, []string{
			name,
			f2(stats.Mean(c.errs)),
			f2(stats.Percentile(c.errs, 90)),
			f3(float64(c.lost) / float64(len(c.errs))),
		})
	}
	addRow("smc (blind)", smcCell)
	addRow("ekf (blind)", ekfBlind)
	addRow("ekf (oracle init)", ekfOracle)
	addRow("cnls (blind)", cnlsBlind)
	addRow("cnls (oracle init)", cnlsOracle)
	return t, nil
}

// AblationHeading evaluates the §4.C mobility-model refinement: prediction
// discs dead-reckoned along the estimated heading with half the radius,
// versus the paper's blind uniform-disc model (ablation A7). Straight-line
// movers benefit; the blind model is the safe default.
func AblationHeading(cfg Config) (Table, error) {
	if err := cfg.ownTrackers(); err != nil {
		return Table{}, err
	}
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "ablation-heading",
		Title:   "Heading-informed vs blind prediction (1 user, 10% sampling, straight mover)",
		Paper:   "§4.C: the mobility model can be refined given the user's heading",
		Columns: []string{"prediction", "final_err_mean", "mean_err_all_rounds"},
	}
	// One trial's final-round error plus its per-round errors in order.
	type headingTrial struct {
		final  float64
		rounds []float64
	}
	cells := []int{boolCell(false), boolCell(true)}
	res, err := runCells(cfg, "ablA7", cells, func(ci, trial int, seed uint64) (headingTrial, error) {
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		src := rng.New(seed + 17)
		sniffer, err := sc.NewSnifferCount(90, src)
		if err != nil {
			return headingTrial{}, err
		}
		tc := cfg.tracker(5)
		tc.HeadingPrediction = cells[ci] == 1
		tracker, err := sniffer.NewTracker(1, tc, seed+1)
		if err != nil {
			return headingTrial{}, err
		}
		traj := mobility.Linear{Start: src.InRect(sc.Field()),
			V: randomHeading(src, 2.5)}
		stretch := src.Uniform(1, 3)
		out := headingTrial{rounds: make([]float64, 0, cfg.Rounds)}
		for round := 1; round <= cfg.Rounds; round++ {
			tm := float64(round)
			truth := sc.Field().Clamp(traj.At(tm))
			obs, err := sniffer.Observe([]traffic.User{
				{Pos: truth, Stretch: stretch, Active: true},
			}, 0, src)
			if err != nil {
				return headingTrial{}, err
			}
			r, err := tracker.Step(tm, obs)
			if err != nil {
				return headingTrial{}, err
			}
			out.final = r.Estimates[0].Mean.Dist(truth)
			out.rounds = append(out.rounds, out.final)
		}
		return out, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci := range cells {
		var finals, all []float64
		for _, tr := range res[ci] {
			finals = append(finals, tr.final)
			all = append(all, tr.rounds...)
		}
		label := "blind disc"
		if cells[ci] == 1 {
			label = "heading"
		}
		t.Rows = append(t.Rows, []string{label, f2(stats.Mean(finals)), f2(stats.Mean(all))})
	}
	return t, nil
}

// randomHeading returns a velocity with the given speed in a random
// direction.
func randomHeading(src *rng.Source, speed float64) geom.Vec {
	theta := src.Uniform(0, 2*math.Pi)
	return geom.Vec{DX: speed * math.Cos(theta), DY: speed * math.Sin(theta)}
}
