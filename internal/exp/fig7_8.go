package exp

import (
	"errors"
	"fmt"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fault"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/stats"
)

// trackTrial runs one tracking trial: k users following the given
// trajectories, observed over cfg.Rounds windows at unit intervals through
// a sniffer of sampleCount nodes. It returns the identity-agnostic matched
// error per round (averaged over users).
//
// When cfg.Fault is enabled the observation stream passes through a fault
// injector seeded from the trial's own stream, and rounds run through the
// masked tracker step: absent sensors drop out of the fit, delayed reports
// are deflated by their staleness, and a round where nothing is delivered
// (smc.ErrAllMasked) carries the previous estimates forward — degraded, not
// broken.
//
// When cfg.Liars is nonzero a deterministic subset of sensors lies before
// the injector runs (the LiarMix blend of inflate, deflate and replay — see
// fault.Adversary), and cfg.Robust arms the fit-layer defense against them.
func trackTrial(cfg Config, sc *core.Scenario, trajectories []mobility.Trajectory,
	sampleCount int, vmax float64, uniformWeights bool, src *rng.Source) ([]float64, error) {
	sniffer, err := sc.NewSnifferCount(sampleCount, src)
	if err != nil {
		return nil, err
	}
	k := len(trajectories)
	stretches := make([]float64, k)
	for i := range stretches {
		stretches[i] = src.Uniform(1, 3)
	}
	tcfg := cfg.tracker(vmax)
	tcfg.UniformWeights = uniformWeights
	tcfg.Shards = cfg.Shards
	if cfg.Shards.Tiles() > 0 {
		// Seed each user's owning tile from its trajectory start so the
		// first rounds route observations to the right shard.
		starts := make([]geom.Point, k)
		for i, tr := range trajectories {
			starts[i] = sc.Field().Clamp(tr.At(0))
		}
		tcfg.InitialPositions = starts
	}
	// NewStepTracker returns the sharded coordinator when cfg.Shards names a
	// grid and the plain tracker otherwise; both step identically below.
	tracker, err := sniffer.NewStepTracker(k, tcfg, src.Uint64())
	if err != nil {
		return nil, err
	}
	// The injector seed is drawn only when faults are on, so fault-free
	// trials consume exactly the seed stream they always did.
	var inj *fault.Injector
	if cfg.Fault.Enabled() {
		inj, err = sniffer.NewFaultInjector(cfg.Fault, src.Uint64())
		if err != nil {
			return nil, err
		}
		inj.SetMetrics(cfg.Metrics)
	}
	// Same gating for the adversary seed: honest trials keep their streams.
	var adv *fault.Adversary
	if cfg.Liars > 0 {
		adv, err = sniffer.NewAdversary(LiarMix(cfg.Liars), src.Uint64())
		if err != nil {
			return nil, err
		}
		adv.SetMetrics(cfg.Metrics)
	}
	// Estimates persist across rounds so a fully masked round scores the
	// previous round's belief; before any round succeeds, the best
	// uninformed guess is the field center.
	estimates := make([]geom.Point, k)
	for i := range estimates {
		estimates[i] = sc.Field().Center()
	}
	perRound := make([]float64, 0, cfg.Rounds)
	for round := 1; round <= cfg.Rounds; round++ {
		t := float64(round)
		truths := make([]geom.Point, k)
		for i, tr := range trajectories {
			truths[i] = sc.Field().Clamp(tr.At(t))
		}
		obs, err := sniffer.Observe(activeUsers(truths, stretches), 0, src)
		if err != nil {
			return nil, err
		}
		// Byzantine sensors tamper before any benign degradation: a liar's
		// report can still be dropped or delayed by the injector downstream.
		if adv != nil {
			obs, err = adv.Apply(obs)
			if err != nil {
				return nil, err
			}
		}
		round := smc.Round{T: t, Measured: obs}
		if inj != nil {
			deg, err := inj.Apply(obs)
			if err != nil {
				return nil, err
			}
			round = smc.Round{T: t, Measured: deg.Readings, Present: deg.Present, Age: deg.Age}
		}
		res, err := tracker.StepRound(round)
		switch {
		case errors.Is(err, smc.ErrAllMasked):
			// Nothing delivered this round: keep the previous estimates.
		case err != nil:
			return nil, err
		default:
			for i, est := range res.Estimates {
				estimates[i] = est.Mean
			}
		}
		perRound = append(perRound, stats.Mean(matchErrors(estimates, truths)))
	}
	return perRound, nil
}

// randomWalks builds k independent speed-bounded walks.
func randomWalks(sc *core.Scenario, k int, maxSpeed float64, rounds int, src *rng.Source) ([]mobility.Trajectory, error) {
	out := make([]mobility.Trajectory, k)
	for i := range out {
		w, err := mobility.NewRandomWalk(sc.Field(), src.InRect(sc.Field()), maxSpeed, rounds+1, src)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// Fig7 regenerates Figure 7: per-round tracking error for the four instant
// cases — one, two, and three users on straight trajectories, plus the
// crossing pair of Fig 7(d) — with full-network flux, N and M at the
// paper's values, and max speed below 5 per interval.
func Fig7(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "fig7",
		Title:   "Per-round tracking error (full-network flux)",
		Paper:   "estimates converge to trajectories; 1-user error < 2 by the final rounds; crossing users keep trajectories but may swap identities",
		Columns: []string{"round", "1 user", "2 users", "3 users", "2 users crossing"},
	}

	cases := []struct {
		name string
		traj func(sc *core.Scenario, src *rng.Source) ([]mobility.Trajectory, error)
	}{
		{"one", func(sc *core.Scenario, src *rng.Source) ([]mobility.Trajectory, error) {
			return []mobility.Trajectory{
				mobility.Linear{Start: geom.Pt(4, 15), V: geom.Vec{DX: 2, DY: 0.5}},
			}, nil
		}},
		{"two", func(sc *core.Scenario, src *rng.Source) ([]mobility.Trajectory, error) {
			return []mobility.Trajectory{
				mobility.Linear{Start: geom.Pt(4, 6), V: geom.Vec{DX: 2, DY: 1}},
				mobility.Linear{Start: geom.Pt(26, 24), V: geom.Vec{DX: -2, DY: -0.5}},
			}, nil
		}},
		{"three", func(sc *core.Scenario, src *rng.Source) ([]mobility.Trajectory, error) {
			return []mobility.Trajectory{
				mobility.Linear{Start: geom.Pt(4, 4), V: geom.Vec{DX: 2, DY: 1.5}},
				mobility.Linear{Start: geom.Pt(26, 6), V: geom.Vec{DX: -2, DY: 1}},
				mobility.Linear{Start: geom.Pt(15, 26), V: geom.Vec{DX: 0.5, DY: -2}},
			}, nil
		}},
		{"crossing", func(sc *core.Scenario, src *rng.Source) ([]mobility.Trajectory, error) {
			a, b, err := mobility.CrossingPair(sc.Field(), 2.5, 0, float64(cfg.Rounds))
			if err != nil {
				return nil, err
			}
			return []mobility.Trajectory{a, b}, nil
		}},
	}

	perCase := make([][]float64, len(cases)) // [case][round] mean error
	for ci, cs := range cases {
		cs := cs
		trials, err := runTrials(cfg, "fig7"+cs.name, ci, cfg.Trials,
			func(trial int, seed uint64) ([]float64, error) {
				sc := cfg.scenario(defaultScenarioCfg(), seed)
				src := rng.New(seed + 17)
				trajs, err := cs.traj(sc, src)
				if err != nil {
					return nil, err
				}
				return trackTrial(cfg, sc, trajs, sc.Network().Len(), 5, false, src)
			})
		if err != nil {
			return Table{}, err
		}
		sums := make([]float64, cfg.Rounds)
		for _, perRound := range trials {
			for r, e := range perRound {
				sums[r] += e
			}
		}
		for r := range sums {
			sums[r] /= float64(cfg.Trials)
		}
		perCase[ci] = sums
	}

	for r := 0; r < cfg.Rounds; r++ {
		row := []string{fmt.Sprintf("%d", r+1)}
		for ci := range cases {
			row = append(row, f2(perCase[ci][r]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig8a regenerates Figure 8(a): final-round tracking error vs the
// percentage of sampling nodes for 1-4 users on random walks.
func Fig8a(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "fig8a",
		Title:   "Tracking error vs percentage of sampling nodes",
		Paper:   "accuracy stable until sampling drops below 5%; 10% of nodes already acceptable",
		Columns: []string{"pct", "1 user", "2 users", "3 users", "4 users"},
	}
	pcts := []int{40, 20, 10, 5}
	ks := []int{1, 2, 3, 4}
	type spec struct{ pct, k int }
	var cells []int
	var specs []spec
	for _, pct := range pcts {
		for _, k := range ks {
			cells = append(cells, pct*10+k)
			specs = append(specs, spec{pct, k})
		}
	}
	res, err := runCells(cfg, "fig8a", cells, func(ci, trial int, seed uint64) (float64, error) {
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		src := rng.New(seed + 17)
		trajs, err := randomWalks(sc, specs[ci].k, 4, cfg.Rounds, src)
		if err != nil {
			return 0, err
		}
		count := sc.Network().Len() * specs[ci].pct / 100
		perRound, err := trackTrial(cfg, sc, trajs, count, 5, false, src)
		if err != nil {
			return 0, err
		}
		return perRound[len(perRound)-1], nil
	})
	if err != nil {
		return Table{}, err
	}
	for pi, pct := range pcts {
		row := []string{fmt.Sprintf("%d%%", pct)}
		for kj := range ks {
			row = append(row, f2(stats.Mean(res[pi*len(ks)+kj])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig8b regenerates Figure 8(b): final-round tracking error vs node count
// with the report count fixed at 90.
func Fig8b(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "fig8b",
		Title:   "Tracking error vs node count (90 reports fixed)",
		Paper:   "network density does not significantly affect tracking accuracy",
		Columns: []string{"nodes", "1 user", "2 users", "3 users", "4 users"},
	}
	nodeCounts := []int{900, 1200, 1500, 1800}
	ks := []int{1, 2, 3, 4}
	type spec struct{ nodes, k int }
	var cells []int
	var specs []spec
	for _, nodes := range nodeCounts {
		for _, k := range ks {
			cells = append(cells, nodes+k)
			specs = append(specs, spec{nodes, k})
		}
	}
	res, err := runCells(cfg, "fig8b", cells, func(ci, trial int, seed uint64) (float64, error) {
		scc := defaultScenarioCfg()
		scc.Nodes = specs[ci].nodes
		sc := cfg.scenario(scc, seed)
		src := rng.New(seed + 17)
		trajs, err := randomWalks(sc, specs[ci].k, 4, cfg.Rounds, src)
		if err != nil {
			return 0, err
		}
		perRound, err := trackTrial(cfg, sc, trajs, 90, 5, false, src)
		if err != nil {
			return 0, err
		}
		return perRound[len(perRound)-1], nil
	})
	if err != nil {
		return Table{}, err
	}
	for ni, nodes := range nodeCounts {
		row := []string{fmt.Sprintf("%d", nodes)}
		for kj := range ks {
			row = append(row, f2(stats.Mean(res[ni*len(ks)+kj])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationImportance compares importance-weighted resampling (§4.D) with
// the uniform-weight variant (design choice A2): final-round tracking error
// for two users at 10% sampling.
func AblationImportance(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "ablation-importance",
		Title:   "Importance sampling on/off (2 users, 10% sampling)",
		Paper:   "the paper adopts importance sampling for faster, more accurate convergence",
		Columns: []string{"weighting", "final_err_mean", "final_err_p90"},
	}
	cells := []int{boolCell(false), boolCell(true)}
	res, err := runCells(cfg, "ablA2", cells, func(ci, trial int, seed uint64) (float64, error) {
		uniform := cells[ci] == 1
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		src := rng.New(seed + 17)
		trajs, err := randomWalks(sc, 2, 4, cfg.Rounds, src)
		if err != nil {
			return 0, err
		}
		perRound, err := trackTrial(cfg, sc, trajs, 90, 5, uniform, src)
		if err != nil {
			return 0, err
		}
		return perRound[len(perRound)-1], nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci := range cells {
		label := "importance"
		if cells[ci] == 1 {
			label = "uniform"
		}
		t.Rows = append(t.Rows, []string{
			label, f2(stats.Mean(res[ci])), f2(stats.Percentile(res[ci], 90)),
		})
	}
	return t, nil
}

func boolCell(b bool) int {
	if b {
		return 1
	}
	return 0
}
