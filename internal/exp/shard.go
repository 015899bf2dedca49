package exp

import (
	"fmt"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fault"
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

	// Each trial yields one value per table column after the halo: err_away,
	// err_seam, handoffs and NNLS solves.
	res, err := runCells(cfg, "figShard", cells, func(ci, trial int, seed uint64) ([]float64, error) {
		// Always the sharded coordinator — a 1×1 field reproduces the plain
		// tracker byte for byte and exposes the same handoff/work meters —
		// on a clean, honest stream whatever the fault and liar settings.
		scfg := cfg
		scfg.Shards, scfg.Fault, scfg.Liars = grids[ci], fault.Config{}, 0
		sc := cfg.scenario(shardScenarioCfg(), seed)
		run, err := trackTrial(scfg, sc, shardTrajectories(), 360, false, rng.New(seed+17))
		if err != nil {
			return nil, err
		}
		var away, seam []float64
		for r, ests := range run.estimates {
			// Group errors by truth, so seam riders and interior users stay
			// attributable even when the tracker swaps identities.
			truths := run.truths[r]
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
		return []float64{stats.Mean(away), stats.Mean(seam), float64(run.handoffs), float64(run.solves)}, nil
	})
	if err != nil {
		return Table{}, err
	}

	for ci, g := range grids {
		m := trialMeans(res[ci])
		t.Rows = append(t.Rows, []string{
			g.String(), fmt.Sprintf("%g", g.Halo), f2(m[0]), f2(m[1]), f2(m[2]), fmt.Sprintf("%.0f", m[3]),
		})
	}
	return t, nil
}
