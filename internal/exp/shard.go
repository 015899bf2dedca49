package exp

import (
	"fmt"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/stats"
)

// shardScenarioCfg is the figShard deployment: the paper's node density
// (1 node per unit area) scaled to a 60×60 field — 3600 nodes, radius 2.4 —
// sniffed at 360 nodes (10%). A 2×2 grid over this field puts seams at
// x = 30 and y = 30.
func shardScenarioCfg() core.ScenarioConfig {
	return core.ScenarioConfig{Field: geom.Square(60), Nodes: 3600}
}

// shardTrajectories returns the six fixed figShard users. Users 0–3 stay in
// the interior of their starting tile for the whole run ("away" users, one
// per tile); user 4 rides northward along the x = 30 seam; user 5 starts in
// the center region and crosses the vertical seam mid-run. The fixed layout
// makes the away/seam split meaningful at every grid and halo.
func shardTrajectories() []mobility.Trajectory {
	return []mobility.Trajectory{
		mobility.Linear{Start: geom.Pt(8, 8), V: geom.Vec{DX: 1.2, DY: 0.8}},
		mobility.Linear{Start: geom.Pt(52, 10), V: geom.Vec{DX: -1.5, DY: 0.9}},
		mobility.Linear{Start: geom.Pt(10, 50), V: geom.Vec{DX: 1.4, DY: -1.1}},
		mobility.Linear{Start: geom.Pt(50, 52), V: geom.Vec{DX: -1.2, DY: -1.3}},
		mobility.Linear{Start: geom.Pt(30.5, 8), V: geom.Vec{DX: -0.1, DY: 2.2}},
		mobility.Linear{Start: geom.Pt(22, 28), V: geom.Vec{DX: 1.8, DY: 0.4}},
	}
}

// shardSeamUser marks which figShard users exercise a seam (true) versus
// staying in their tile's interior (false).
var shardSeamUser = [6]bool{4: true, 5: true}

// FigShard quantifies the accuracy cost and work reduction of field sharding
// (internal/shard). It is an extension figure — the paper tracks one
// monolithic field — comparing the unsharded 1×1 reference against a 2×2
// tile grid at increasing halo widths on a 60×60 deployment with six users:
// four interior users (one per tile, never near a seam), one user riding the
// vertical seam, and one crossing it mid-run.
//
// Columns: the tile grid, its halo width, mean tracking error over the
// interior users, mean error over the two seam users, cross-tile handoffs
// per trial, and cumulative NNLS solves. Sharding is an approximation: a
// tile explains its sensors' flux using only the users it owns, so a
// neighbor tile's user contributes unmodeled signal. The halo is the
// resulting trade — widening it gives seam riders cross-seam evidence
// (err_seam improves) while admitting more foreign flux into the interior
// fit (err_away degrades) — and this table prices both sides against the
// 1×1 reference. The solve count stays comparable across grids — the
// candidate volume is fixed — which is the point: sharding's work reduction
// lives inside each solve, whose Gram build runs over ~1/tiles of the
// sensors against a smaller joint user set. That reduction is pinned as
// deterministic NNLS counts by internal/shard's TestShardWorkReduction, and
// the sharded step's wall time is perfbench's field-hotspot workload; this
// table keeps only worker-count-invariant columns so it can sit under the
// golden tests.
func FigShard(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "figShard",
		Title:   "Field sharding: seam accuracy and per-tile work vs halo (60×60, 6 users)",
		Paper:   "extension: sharding trades accuracy for per-tile work; halo trades seam fit vs interior fit",
		Columns: []string{"grid", "halo", "err_away", "err_seam", "handoffs", "nnls_solves"},
	}
	grids := []shard.Grid{
		{Rows: 1, Cols: 1},
		{Rows: 2, Cols: 2, Halo: 0},
		{Rows: 2, Cols: 2, Halo: 2},
		{Rows: 2, Cols: 2, Halo: 4},
	}
	cells := make([]int, len(grids))
	for i, g := range grids {
		cells[i] = g.Rows*1000 + g.Cols*100 + int(g.Halo)
	}

	type shardTrial struct {
		errAway  float64
		errSeam  float64
		handoffs float64
		solves   float64
	}
	res, err := runCells(cfg, "figShard", cells, func(ci, trial int, seed uint64) (shardTrial, error) {
		g := grids[ci]
		sc := cfg.scenario(shardScenarioCfg(), seed)
		src := rng.New(seed + 17)
		sniffer, err := sc.NewSnifferCount(360, src)
		if err != nil {
			return shardTrial{}, err
		}
		trajs := shardTrajectories()
		k := len(trajs)
		stretches := make([]float64, k)
		for i := range stretches {
			stretches[i] = src.Uniform(1, 3)
		}
		starts := make([]geom.Point, k)
		for i, tr := range trajs {
			starts[i] = sc.Field().Clamp(tr.At(0))
		}
		// Always the sharded constructor — a 1×1 field reproduces the plain
		// tracker byte for byte and exposes the same handoff/work meters.
		tc := cfg.tracker(5)
		tc.Shards, tc.InitialPositions = g, starts
		field, err := sniffer.NewShardedTracker(k, tc, src.Uint64())
		if err != nil {
			return shardTrial{}, err
		}
		var away, seam []float64
		for round := 1; round <= cfg.Rounds; round++ {
			tm := float64(round)
			truths := make([]geom.Point, k)
			for i, tr := range trajs {
				truths[i] = sc.Field().Clamp(tr.At(tm))
			}
			o, err := sniffer.Observe(activeUsers(truths, stretches), 0, src)
			if err != nil {
				return shardTrial{}, err
			}
			step, err := field.Step(tm, o)
			if err != nil {
				return shardTrial{}, err
			}
			ests := make([]geom.Point, k)
			for i, e := range step.Estimates {
				ests[i] = e.Mean
			}
			// Group errors by truth, so seam riders and interior users stay
			// attributable even when the tracker swaps identities.
			byTruth := make([]float64, len(truths))
			for i, j := range geom.MatchGreedy(ests, truths) {
				byTruth[j] = ests[i].Dist(truths[j])
			}
			for i, d := range byTruth {
				if shardSeamUser[i] {
					seam = append(seam, d)
				} else {
					away = append(away, d)
				}
			}
		}
		solves, _ := field.WorkTotals()
		return shardTrial{
			errAway:  stats.Mean(away),
			errSeam:  stats.Mean(seam),
			handoffs: float64(field.Handoffs()),
			solves:   float64(solves),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}

	for ci, g := range grids {
		var away, seam, hand, solves []float64
		for _, tr := range res[ci] {
			away = append(away, tr.errAway)
			seam = append(seam, tr.errSeam)
			hand = append(hand, tr.handoffs)
			solves = append(solves, tr.solves)
		}
		t.Rows = append(t.Rows, []string{
			g.String(),
			fmt.Sprintf("%g", g.Halo),
			f2(stats.Mean(away)),
			f2(stats.Mean(seam)),
			f2(stats.Mean(hand)),
			fmt.Sprintf("%.0f", stats.Mean(solves)),
		})
	}
	return t, nil
}
