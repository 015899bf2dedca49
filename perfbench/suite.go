package main

import (
	"strings"
	"time"

	"fluxtrack/internal/exp"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/obs"
)

// suiteIDs lists the experiments a run covers: ids, or the whole registry.
func suiteIDs(ids []string) []string {
	if ids != nil {
		return ids
	}
	var out []string
	for _, e := range exp.All() {
		out = append(out, e.ID)
	}
	return out
}

// suitePass is one run of the experiment registry.
type suitePass struct {
	runMs  map[string]float64
	tables string
}

// suiteConfig is the quick suite's configuration: QuickConfig at one trial
// and one worker with the coarse prestage on, as BENCH_pr8.json records.
func suiteConfig(cfg runConfig) exp.Config {
	c := exp.QuickConfig()
	c.Seed, c.Trials, c.Workers = cfg.seed, 1, 1
	if cfg.size.suiteSamples > 0 {
		c.Samples = cfg.size.suiteSamples
	}
	if cfg.size.suiteTrackN > 0 {
		c.TrackN = cfg.size.suiteTrackN
	}
	c.Coarse = fingerprint.CoarseConfig{Enabled: true}.WithDefaults()
	return c
}

// runSuitePass times each experiment's Run on a fresh fingerprint cache.
func runSuitePass(cfg runConfig, l *ledger, met *obs.Metrics) (suitePass, error) {
	c := suiteConfig(cfg)
	c.DBCache = fingerprint.NewCache(0)
	c.Metrics = met
	sp := suitePass{runMs: make(map[string]float64)}
	var tables strings.Builder
	for _, id := range suiteIDs(cfg.size.suiteIDs) {
		e, err := exp.ByID(id)
		if err != nil {
			return suitePass{}, err
		}
		t0 := time.Now()
		tab, err := e.Run(c)
		sp.runMs[id] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if !l.op(err) {
			continue
		}
		tables.WriteString("== " + id + "\n" + tab.Render())
		l.check(len(tab.Rows) > 0, "experiment %s rendered an empty table", id)
	}
	sp.tables = tables.String()
	return sp, nil
}

// suiteLedger is the paper-reproduction use, run once untraced and once
// traced as part of a traced run: the experiment registry at the quick
// configuration. It is the only caller of the traffic simulation, instant
// localization, the EKF and packet baselines and the exp trial pool, so it
// keeps those layers in the ledger. Its counters go to a registry of their
// own, so they do not mix with the workload's. Both passes must render
// byte-identical tables.
func suiteLedger(cfg runConfig, l *ledger) error {
	plain, err := runSuitePass(cfg, l, nil)
	if err != nil {
		return err
	}
	met := obs.New(0)
	traced, err := runSuitePass(cfg, l, met)
	if err != nil {
		return err
	}
	l.check(traced.tables == plain.tables, "traced suite tables differ from untraced tables")
	var total float64
	for id, ms := range plain.runMs {
		l.set(expMetric(id), ms/1e3)
		total += ms / 1e3
	}
	l.set("exp.suite_s", total)
	c := counters(met)
	l.set("traffic.flux_rounds", c["traffic.flux.rounds"])
	l.set("traffic.tree_hit_frac", ratio(c["traffic.tree.hits"], c["traffic.tree.hits"]+c["traffic.tree.builds"]))
	l.set("exp.pool.units", c["exp.pool.units"])
	return nil
}
