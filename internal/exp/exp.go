// Package exp reproduces every figure of the paper's evaluation section
// (§3.B statistics and §5), plus the ablation studies listed in DESIGN.md.
// Each experiment returns a Table whose rows regenerate the corresponding
// figure's data series; cmd/fluxbench prints them and bench_test.go wraps
// them in testing.B benchmarks.
//
// Experiments are registered by id (fig3a … fig10b, abl*, figRobust) in
// registry.go and share one Config: seeds, trial counts, effort knobs
// (Samples, TrackN, TrackM, Rounds), a fault.Config for degraded-sensing
// runs, a Workers count, and optional obs instruments. Trials fan out over
// the deterministic worker pool in parallel.go and merge in index order, so
// every rendered table is byte-identical at any worker count — a property
// pinned by the golden tests in this package, which also check each
// table's digest and counter totals against testdata/golden.json. Binding Config.Metrics and
// Config.Trace threads counters and step spans through every layer of a run
// without changing any of those bytes (see TestMetricsDoNotPerturbTables).
package exp

import (
	"errors"
	"fmt"
	"strings"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fault"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

// Table is one experiment's regenerated data.
type Table struct {
	ID      string     // experiment id, e.g. "fig6a"
	Title   string     // what the table shows
	Paper   string     // the shape the paper reports, for side-by-side reading
	Columns []string   // column headers
	Rows    [][]string // data rows
}

// Render returns the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "   paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Config scales experiment effort. DefaultConfig matches the paper's
// settings; QuickConfig shrinks everything so the full suite runs in
// seconds (used by benchmarks and smoke tests).
type Config struct {
	Seed    uint64 // base seed; experiments derive per-trial seeds from it
	Trials  int    // repetitions per configuration cell
	Samples int    // candidate positions per user in localization searches
	TrackN  int    // SMC prediction samples per user per round
	TrackM  int    // SMC kept representatives
	Rounds  int    // tracking rounds per trial
	// Workers bounds the goroutines running (cell, trial) units, the inner
	// candidate-scoring loops of the NLS search, and every intra-step phase
	// of the SMC tracker (prediction, filtering, update — see
	// smc.Config.Workers). 0 means one worker per CPU (GOMAXPROCS); 1
	// forces the exact sequential legacy path. Every value produces
	// byte-identical tables — see parallel.go.
	Workers int
	// Fault, Liars and Shards reach only the tracking trials that run
	// through trackTrial: fig7, fig8a, fig8b, ablation-importance, figRobust,
	// figByzantine and figCoarse's track_err column. fig10a/b, baseline-ekf
	// and ablation-heading build their own trackers, which would ignore all
	// three, so they refuse a Config that sets any of them (ErrIgnoredFlags).
	//
	// Fault degrades the observation stream of those trials: permanent
	// sensor dropout, per-round report loss, delayed delivery, and stuck
	// readings (see internal/fault). figRobust replaces it with each row's
	// regime, and figShard zeroes it. The zero value is the clean, lossless
	// stream of the paper's evaluation. Each trial gets its own injector
	// seeded from the trial seed, so fault patterns are byte-stable at any
	// worker count like everything else in this package.
	Fault fault.Config
	// Liars is the fraction of those trials' sensors compromised with the
	// LiarMix blend of Byzantine behaviors — inflated, deflated, or replayed
	// readings (see fault.AdversaryConfig). figByzantine replaces it with
	// each row's fraction, and figShard zeroes it. Tampering happens
	// upstream of the Fault injector, so a liar's report can still be lost
	// or delayed. Zero keeps every sensor honest. Each trial gets its own
	// adversary seeded from the trial seed, so the compromised set is
	// byte-stable at any worker count.
	Liars float64
	// Robust arms the robust-fitting defense in every localization and
	// tracker search (fit.Options.Robust): per-sensor trust multipliers
	// derived from leave-one-sensor-out flags and then Huber IRLS,
	// re-ranking on the reweighted problem. The zero value keeps the
	// undefended fit.
	Robust fit.RobustConfig
	// Coarse, when Enabled, switches every tracking trial to the
	// coarse-to-fine candidate search: each trial's tracker precomputes a
	// fingerprint database over its sniffer's nodes and shortlists TopK
	// candidates per user per round before the exact evaluator runs (see
	// core.TrackerConfig.Coarse). The zero value keeps the exact search of
	// the paper's evaluation. Shortlisting changes which candidates are
	// ranked, so tables rendered with Coarse enabled are not byte-comparable
	// to exact tables unless TopK >= TrackN; the figCoarse experiment
	// quantifies the accuracy cost across shortlist sizes.
	Coarse fingerprint.CoarseConfig
	// Shards, when it names a grid (Tiles() > 0), runs the trackTrial
	// trials listed above through the tiled multi-shard coordinator
	// (internal/shard) instead of the single tracker; figShard replaces it
	// with each row's grid. The field splits into Rows×Cols tiles, each owning
	// its sensors and an independent SMC tracker, and users hand off between
	// tiles as their estimates cross seams. Each user's owning tile is seeded
	// from its trajectory start. A 1×1 grid reproduces the unsharded tables
	// byte for byte (pinned by TestShardOneByOneMatchesUnsharded); larger
	// grids trade seam accuracy for per-tile work reduction, quantified by
	// the figShard experiment. The zero Grid keeps the plain tracker.
	Shards shard.Grid
	// DBCache, when non-nil, memoizes coarse fingerprint-database builds
	// across every tracker constructed by the experiments sharing it — the
	// trials of a cell, the tiles of a sharded field — keyed by (model,
	// bounds, sensor layout, grid resolution); see fingerprint.Cache. Caching
	// never changes a rendered Table (databases are deterministic), it only
	// removes redundant builds. Nil builds each database from scratch.
	DBCache *fingerprint.Cache
	// Metrics, when non-nil, receives work counters and latency histograms
	// from every layer the experiments touch: the harness pool (exp.pool.*,
	// exp.trial.wall_ms), the SMC tracker (smc.step.*), the inner NLS search
	// (fit.search.*, fit.nnls.*), the traffic simulator (traffic.*), and the
	// fault injector (fault.*). Metrics are write-only — enabling them never
	// changes a rendered Table, and every counter total is worker-count
	// invariant (TestMetricsDoNotPerturbTables pins both properties). Nil
	// disables all instrumentation.
	Metrics *obs.Metrics
	// Trace, when non-nil, receives one obs.Span per tracker round across
	// all tracking trials (spans carry the trial seed, so a shared ring
	// disentangles). Nil disables span collection.
	Trace *obs.Trace
}

// ErrIgnoredFlags is wrapped by the error of an experiment that builds its
// own trackers (fig10a/b, baseline-ekf, ablation-heading) when the Config
// asks for a degradation those trackers would silently ignore.
var ErrIgnoredFlags = errors.New("exp: flag ignored by an experiment that builds its own trackers")

// ownTrackers is the check those experiments run first: it names each
// degradation flag set in c (the binders' names: BindFaultFlags and
// BindSearchFlags), or returns nil when none is.
func (c Config) ownTrackers() error {
	f := c.Fault
	var set []string
	for _, flag := range []struct {
		name string
		on   bool
	}{
		{"-dropout", f.DropoutFrac > 0},
		{"-loss", f.LossProb > 0},
		{"-delay", f.DelayProb > 0},
		{"-stuck", f.StuckFrac > 0},
		{"-liars", c.Liars > 0},
		{"-shards", c.Shards.Tiles() > 0},
	} {
		if flag.on {
			set = append(set, flag.name)
		}
	}
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrIgnoredFlags, strings.Join(set, ", "))
}

// DefaultConfig returns the paper-faithful settings (§5): 10,000 samples
// per user for instant localization, N=1000/M=10 for tracking, 10 rounds.
func DefaultConfig() Config {
	return Config{Seed: 1, Trials: 10, Samples: 10000, TrackN: 1000, TrackM: 10, Rounds: 10}
}

// QuickConfig returns a configuration small enough for benchmarks while
// preserving every code path.
func QuickConfig() Config {
	return Config{Seed: 1, Trials: 2, Samples: 800, TrackN: 200, TrackM: 10, Rounds: 6}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Trials <= 0 {
		c.Trials = d.Trials
	}
	if c.Samples <= 0 {
		c.Samples = d.Samples
	}
	if c.TrackN <= 0 {
		c.TrackN = d.TrackN
	}
	if c.TrackM <= 0 {
		c.TrackM = d.TrackM
	}
	if c.Rounds <= 0 {
		c.Rounds = d.Rounds
	}
	return c
}

// searchOpts builds the fit options used by the localization call sites,
// carrying the Workers knob into the inner candidate-scoring loops (the
// hottest loop of instant localization at the paper's Samples=10000).
func (c Config) searchOpts(samples int, seed uint64) fit.Options {
	return fit.Options{Samples: samples, TopM: 10, Seed: seed, Workers: c.Workers, Metrics: c.Metrics, Robust: c.Robust}
}

// tracker is the tracker configuration every experiment starts from at
// speed bound vmax; each experiment then sets only what it varies.
func (c Config) tracker(vmax float64) core.TrackerConfig {
	return core.TrackerConfig{
		N: c.TrackN, M: c.TrackM, VMax: vmax,
		Search: fit.Options{Robust: c.Robust},
		Coarse: c.Coarse, DBCache: c.DBCache,
		Workers: c.Workers, Metrics: c.Metrics, Trace: c.Trace,
	}
}

// trialSeed derives a deterministic seed for one (experiment, cell, trial)
// coordinate.
func (c Config) trialSeed(exp string, cell, trial int) uint64 {
	h := c.Seed
	for _, ch := range exp {
		h = h*1099511628211 + uint64(ch)
	}
	h = h*1099511628211 + uint64(cell)*2654435761
	h = h*1099511628211 + uint64(trial)*40503
	return h
}

// matchErrors returns each matched estimate's distance to its truth under
// geom.MatchGreedy, in estimate order.
func matchErrors(estimates, truths []geom.Point) []float64 {
	match := geom.MatchGreedy(estimates, truths)
	out := make([]float64, len(match))
	for i, j := range match {
		out[i] = estimates[i].Dist(truths[j])
	}
	return out
}

// flatten concatenates per-trial error slices in trial order.
func flatten(trials [][]float64) []float64 {
	var out []float64
	for _, es := range trials {
		out = append(out, es...)
	}
	return out
}

// errRow formats a table row: the label, then the mean and the median of
// the trials' errors, concatenated in trial order.
func errRow(label string, trials [][]float64) []string {
	errs := flatten(trials)
	return []string{label, f2(stats.Mean(errs)), f2(stats.Median(errs))}
}

// trialMeans reduces each trial's row of values to the column means over
// the trials, every column summed in trial order.
func trialMeans(trials [][]float64) []float64 {
	means := make([]float64, len(trials[0]))
	col := make([]float64, len(trials))
	for c := range means {
		for i, tr := range trials {
			col[i] = tr[c]
		}
		means[c] = stats.Mean(col)
	}
	return means
}

// activeUsers converts positions and stretches into active traffic users.
func activeUsers(positions []geom.Point, stretches []float64) []traffic.User {
	users := make([]traffic.User, len(positions))
	for i := range positions {
		users[i] = traffic.User{Pos: positions[i], Stretch: stretches[i], Active: true}
	}
	return users
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// defaultScenarioCfg is the paper's standard deployment (§5.A): 900 nodes,
// perturbed grids, 30x30 field, radius 2.4.
func defaultScenarioCfg() core.ScenarioConfig { return core.ScenarioConfig{} }

// mustScenario builds a scenario and panics on configuration errors, which
// in the experiment harness are always programming errors in the experiment
// definitions themselves.
func mustScenario(cfg core.ScenarioConfig, seed uint64) *core.Scenario {
	sc, err := core.NewScenario(cfg, rng.New(seed))
	if err != nil {
		panic(fmt.Sprintf("exp: scenario: %v", err))
	}
	return sc
}

// scenario builds one trial's world and binds the harness metrics registry
// to its traffic simulator, so the traffic.* counters cover localization and
// tracking trials alike. Each trial owns its scenario, so the bind is
// race-free by construction.
func (c Config) scenario(scc core.ScenarioConfig, seed uint64) *core.Scenario {
	sc := mustScenario(scc, seed)
	sc.SetMetrics(c.Metrics)
	return sc
}
