package exp

import (
	"errors"
	"fmt"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fault"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/stats"
)

// trackRun is one tracking trial's record: every round's estimates and the
// true positions they are scored against, and the tracker's cross-tile
// handoffs (0 on the plain tracker) and cumulative NNLS solves.
type trackRun struct {
	estimates, truths [][]geom.Point // [round][user]
	handoffs          int
	solves            uint64
}

// errs returns the identity-agnostic matched error per round, averaged over
// users in estimate order.
func (r trackRun) errs() []float64 {
	out := make([]float64, len(r.truths))
	for i := range out {
		out[i] = stats.Mean(matchErrors(r.estimates[i], r.truths[i]))
	}
	return out
}

// trackTrial runs one tracking trial: k users following the given
// trajectories, observed over cfg.Rounds windows at unit intervals through
// a sniffer of sampleCount nodes, by a tracker whose speed bound is 5 per
// interval (§5). It returns the trial's record.
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
//
// When cfg.Shards names a grid the trial tracks through the sharded
// coordinator, each user's owning tile seeded from its trajectory start.
func trackTrial(cfg Config, sc *core.Scenario, trajectories []mobility.Trajectory,
	sampleCount int, uniformWeights bool, src *rng.Source) (trackRun, error) {
	sniffer, err := sc.NewSnifferCount(sampleCount, src)
	if err != nil {
		return trackRun{}, err
	}
	k := len(trajectories)
	stretches := make([]float64, k)
	for i := range stretches {
		stretches[i] = src.Uniform(1, 3)
	}
	tcfg := cfg.tracker(5)
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
		return trackRun{}, err
	}
	// The injector seed is drawn only when faults are on, so fault-free
	// trials consume exactly the seed stream they always did.
	var inj *fault.Injector
	if cfg.Fault.Enabled() {
		inj, err = sniffer.NewFaultInjector(cfg.Fault, src.Uint64())
		if err != nil {
			return trackRun{}, err
		}
		inj.SetMetrics(cfg.Metrics)
	}
	// Same gating for the adversary seed: honest trials keep their streams.
	var adv *fault.Adversary
	if cfg.Liars > 0 {
		adv, err = sniffer.NewAdversary(LiarMix(cfg.Liars), src.Uint64())
		if err != nil {
			return trackRun{}, err
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
	var run trackRun
	for round := 1; round <= cfg.Rounds; round++ {
		t := float64(round)
		truths := make([]geom.Point, k)
		for i, tr := range trajectories {
			truths[i] = sc.Field().Clamp(tr.At(t))
		}
		obs, err := sniffer.Observe(activeUsers(truths, stretches), 0, src)
		if err != nil {
			return trackRun{}, err
		}
		// Byzantine sensors tamper before any benign degradation: a liar's
		// report can still be dropped or delayed by the injector downstream.
		if adv != nil {
			obs, err = adv.Apply(obs)
			if err != nil {
				return trackRun{}, err
			}
		}
		round := smc.Round{T: t, Measured: obs}
		if inj != nil {
			deg, err := inj.Apply(obs)
			if err != nil {
				return trackRun{}, err
			}
			round = smc.Round{T: t, Measured: deg.Readings, Present: deg.Present, Age: deg.Age}
		}
		res, err := tracker.StepRound(round)
		switch {
		case errors.Is(err, smc.ErrAllMasked):
			// Nothing delivered this round: keep the previous estimates.
		case err != nil:
			return trackRun{}, err
		default:
			for i, est := range res.Estimates {
				estimates[i] = est.Mean
			}
		}
		run.estimates = append(run.estimates, append([]geom.Point(nil), estimates...))
		run.truths = append(run.truths, truths)
	}
	if field, ok := tracker.(*shard.Field); ok {
		run.handoffs = field.Handoffs()
	}
	run.solves, _ = tracker.WorkTotals()
	return run, nil
}

// walkTrial tracks k users at the Fig 8a working point on the world sc: the
// trial's seed+17 source draws k random walks at speed 4, then trackTrial
// follows them through a sniffer of sampleCount nodes. It returns the
// matched error per round.
func walkTrial(cfg Config, sc *core.Scenario, seed uint64, k, sampleCount int, uniformWeights bool) ([]float64, error) {
	src := rng.New(seed + 17)
	trajs, err := randomWalks(sc, k, 4, cfg.Rounds, src)
	if err != nil {
		return nil, err
	}
	run, err := trackTrial(cfg, sc, trajs, sampleCount, uniformWeights, src)
	return run.errs(), err
}

// finalRound keeps a trial's last-round error.
func finalRound(perRound []float64, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	return perRound[len(perRound)-1:], nil
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
				run, err := trackTrial(cfg, sc, trajs, sc.Network().Len(), false, src)
				return run.errs(), err
			})
		if err != nil {
			return Table{}, err
		}
		perCase[ci] = trialMeans(trials)
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
	cells, err := sweep(cfg, "fig8a", pctAxis, userAxis, func(pct, k int, seed uint64) ([]float64, error) {
		sc := cfg.scenario(defaultScenarioCfg(), seed)
		return finalRound(walkTrial(cfg, sc, seed, k, sc.Network().Len()*pct/100, false))
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "fig8a",
		Title:   "Tracking error vs percentage of sampling nodes",
		Paper:   "accuracy stable until sampling drops below 5%; 10% of nodes already acceptable",
		Columns: append([]string{"pct"}, userAxis.labels...),
		Rows:    sweepRows(pctAxis.labels, cells),
	}, nil
}

// Fig8b regenerates Figure 8(b): final-round tracking error vs node count
// with the report count fixed at 90.
func Fig8b(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	cells, err := sweep(cfg, "fig8b", nodeAxis, userAxis, func(nodes, k int, seed uint64) ([]float64, error) {
		scc := defaultScenarioCfg()
		scc.Nodes = nodes
		return finalRound(walkTrial(cfg, cfg.scenario(scc, seed), seed, k, 90, false))
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "fig8b",
		Title:   "Tracking error vs node count (90 reports fixed)",
		Paper:   "network density does not significantly affect tracking accuracy",
		Columns: append([]string{"nodes"}, userAxis.labels...),
		Rows:    sweepRows(nodeAxis.labels, cells),
	}, nil
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
	res, err := runCells(cfg, "ablA2", cells, func(ci, trial int, seed uint64) ([]float64, error) {
		return finalRound(walkTrial(cfg, cfg.scenario(defaultScenarioCfg(), seed), seed, 2, 90, cells[ci] == 1))
	})
	if err != nil {
		return Table{}, err
	}
	for ci := range cells {
		label := "importance"
		if cells[ci] == 1 {
			label = "uniform"
		}
		finals := flatten(res[ci])
		t.Rows = append(t.Rows, []string{label, f2(stats.Mean(finals)), f2(stats.Percentile(finals, 90))})
	}
	return t, nil
}

func boolCell(b bool) int {
	if b {
		return 1
	}
	return 0
}
