package exp

import (
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/sim"
	"fluxtrack/internal/traffic"
)

// packetTrial runs one instant localization against packet-level sniffing:
// users collect at t=0, sniffers physically count overheard packets across
// the wave, and the NLS fit runs on those counts. aggregated switches on
// TAG-style in-network aggregation.
func packetTrial(cfg Config, k int, aggregated bool, seed uint64) ([]float64, error) {
	sc := cfg.scenario(defaultScenarioCfg(), seed)
	src := rng.New(seed + 17)
	users := traffic.RandomUsers(sc.Field(), k, 1, 3, src)

	pktSim, err := sim.New(sim.Config{Net: sc.Network(), Aggregated: aggregated})
	if err != nil {
		return nil, err
	}
	for _, u := range users {
		if err := pktSim.Collect(u.Pos, u.Stretch, 0, src); err != nil {
			return nil, err
		}
	}

	nodes, err := traffic.PickSamplingNodes(sc.Network(), 90, src)
	if err != nil {
		return nil, err
	}
	points := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		points[i] = sc.Network().Pos(n)
	}
	obs := pktSim.Sniff(points, 0, pktSim.WaveDuration()+1)

	prob, err := fit.NewProblem(sc.Model(), points, obs)
	if err != nil {
		return nil, err
	}
	res, err := fit.Localize(prob, k, cfg.searchOpts(sparseSearchSamples(cfg), seed), src)
	if err != nil {
		return nil, err
	}
	truths := make([]geom.Point, k)
	for i, u := range users {
		truths[i] = u.Pos
	}
	return matchErrors(res.Best[0].Positions, truths), nil
}

// AblationPacketLevel compares the fluid flux measurement against
// physically counted packet sniffing (ablation A8): the localization
// accuracy should be equivalent, validating the fluid shortcut used by the
// bulk experiments.
func AblationPacketLevel(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "ablation-packet",
		Title:   "Fluid flux vs packet-level sniffing (2 users, 10% sampling)",
		Paper:   "n/a (measurement-realism ablation: sniffed packet counts are the physical observable)",
		Columns: []string{"measurement", "mean_err", "median_err"},
	}
	// Fluid path: identical workload through the standard sniffer.
	fluidTrials, err := runTrials(cfg, "ablA8fluid", 0, cfg.Trials,
		func(trial int, seed uint64) ([]float64, error) {
			sc := cfg.scenario(defaultScenarioCfg(), seed)
			src := rng.New(seed + 17)
			return localizeTrial(cfg, sc, 2, 90, sparseSearchSamples(cfg), src)
		})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, errRow("fluid flux", fluidTrials))

	packetTrials, err := runTrials(cfg, "ablA8pkt", 0, cfg.Trials,
		func(trial int, seed uint64) ([]float64, error) {
			return packetTrial(cfg, 2, false, seed)
		})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, errRow("packet sniffing", packetTrials))
	return t, nil
}

// AggregationDefense evaluates TAG-style in-network aggregation as a
// countermeasure (ablation A9): when every node forwards one aggregate
// packet, the flux fingerprint flattens and the attack collapses to random
// guessing — a structural defense the paper's future work hints at.
func AggregationDefense(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "aggregation",
		Title:   "Raw collection vs TAG aggregation (2 users, 10% sampling, packet-level)",
		Paper:   "n/a (defense extension: aggregation removes the traffic concentration the attack needs)",
		Columns: []string{"routing", "mean_err", "median_err"},
	}
	cells := []int{boolCell(false), boolCell(true)}
	res, err := runCells(cfg, "ablA9", cells, func(ci, trial int, seed uint64) ([]float64, error) {
		return packetTrial(cfg, 2, cells[ci] == 1, seed)
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = [][]string{errRow("raw collection", res[0]), errRow("TAG aggregation", res[1])}
	return t, nil
}
