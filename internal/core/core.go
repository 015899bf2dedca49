// Package core is the top-level API of the flux-fingerprinting library. It
// wires the substrates together into the paper's attack pipeline:
//
//	Scenario — a deployed sensor network plus its traffic simulator and a
//	           calibrated flux model (the world).
//	Sniffer  — a sparse set of passively monitored nodes (the adversary's
//	           vantage), producing flux observations.
//	           Localize / NewTracker run the NLS fit (§4.A) and the
//	           Sequential Monte Carlo tracker (Algorithm 4.1) on those
//	           observations.
//
// A minimal end-to-end attack:
//
//	src := rng.New(1)
//	sc, _ := core.NewScenario(core.ScenarioConfig{}, src)
//	sniffer, _ := sc.NewSniffer(0.1, src)           // sniff 10% of nodes
//	users := traffic.RandomUsers(sc.Field(), 2, 1, 3, src)
//	obs, _ := sniffer.Observe(users, 0, src)
//	res, _ := sniffer.Localize(2, fit.Options{}, src)
package core

import (
	"errors"
	"fmt"
	"math"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/fault"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/traffic"
)

// ScenarioConfig configures a simulated deployment. The zero value gives
// the paper's standard setup (§5.A): 900 nodes in perturbed grids on a
// 30x30 field with communication radius 2.4 (average degree ≈ 18). A
// negative or non-finite Nodes, Radius or field extent is an error, and so
// is a non-zero field without positive width and height.
type ScenarioConfig struct {
	Field      geom.Rect   // deployment field; zero means 30x30
	Nodes      int         // node count; zero means 900
	Radius     float64     // radio range; zero means 2.4
	Deployment deploy.Kind // layout; zero means perturbed grid
	// SmoothPasses is how many neighborhood-averaging passes the sniffed
	// flux goes through before sampling. A passive sniffer physically
	// overhears every transmission in radio range, so its reading is a
	// neighborhood aggregate rather than a single node's counter; one pass
	// (the default, use -1 to disable) models that.
	SmoothPasses int
}

// check rejects a negative or non-finite node count, radius or field
// extent. It runs before withDefaults, so zero still means the default.
func (c ScenarioConfig) check() error {
	if c.Nodes < 0 {
		return fmt.Errorf("core: node count must not be negative, got %d", c.Nodes)
	}
	if !(c.Radius >= 0) || math.IsInf(c.Radius, 1) {
		return fmt.Errorf("core: radius must be finite and non-negative, got %v", c.Radius)
	}
	if f := c.Field; f != (geom.Rect{}) {
		for _, v := range []float64{f.Min.X, f.Min.Y, f.Max.X, f.Max.Y} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: field %v is not finite", f)
			}
		}
		if !(f.Width() > 0 && f.Height() > 0) {
			return fmt.Errorf("core: field %v must have positive width and height", f)
		}
	}
	return nil
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Field == (geom.Rect{}) {
		c.Field = geom.Square(30)
	}
	if c.Nodes == 0 {
		c.Nodes = 900
	}
	if c.Radius == 0 {
		c.Radius = 2.4
	}
	if c.Deployment == 0 {
		c.Deployment = deploy.PerturbedGrid
	}
	if c.SmoothPasses == 0 {
		c.SmoothPasses = 1
	}
	if c.SmoothPasses < 0 {
		c.SmoothPasses = 0
	}
	return c
}

// Scenario is a deployed sensor network with its traffic simulator and the
// calibrated theoretical flux model.
type Scenario struct {
	cfg   ScenarioConfig
	net   *network.Network
	sim   *traffic.Simulator
	model *fluxmodel.Model
	cal   fluxmodel.Calibration
}

// NewScenario deploys a network per cfg and calibrates the flux model.
func NewScenario(cfg ScenarioConfig, src *rng.Source) (*Scenario, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	positions, err := deploy.Generate(deploy.Config{
		Field: cfg.Field, N: cfg.Nodes, Kind: cfg.Deployment,
	}, src)
	if err != nil {
		return nil, fmt.Errorf("core: deploy: %w", err)
	}
	net, err := network.New(cfg.Field, positions, cfg.Radius)
	if err != nil {
		return nil, fmt.Errorf("core: network: %w", err)
	}
	// Calibrate from a central node: hop geometry is most regular there.
	cal, err := fluxmodel.Calibrate(net, net.Nearest(cfg.Field.Center()))
	if err != nil {
		return nil, fmt.Errorf("core: calibrate: %w", err)
	}
	model, err := fluxmodel.ForNetwork(net, cal)
	if err != nil {
		return nil, fmt.Errorf("core: model: %w", err)
	}
	return &Scenario{
		cfg:   cfg,
		net:   net,
		sim:   traffic.NewSimulator(net),
		model: model,
		cal:   cal,
	}, nil
}

// Field returns the deployment field.
func (s *Scenario) Field() geom.Rect { return s.cfg.Field }

// Network returns the deployed network.
func (s *Scenario) Network() *network.Network { return s.net }

// Simulator returns the ground-truth traffic simulator.
func (s *Scenario) Simulator() *traffic.Simulator { return s.sim }

// SetMetrics binds (or, with nil, unbinds) the observability registry the
// scenario's traffic simulator reports its traffic.* work counters to; see
// traffic.Simulator.SetMetrics for the binding contract.
func (s *Scenario) SetMetrics(m *obs.Metrics) { s.sim.SetMetrics(m) }

// Model returns the calibrated flux model.
func (s *Scenario) Model() *fluxmodel.Model { return s.model }

// Calibration returns the model calibration constants.
func (s *Scenario) Calibration() fluxmodel.Calibration { return s.cal }

// GroundFlux simulates the cumulated per-node flux for the users and
// applies the scenario's sniffer smoothing passes.
func (s *Scenario) GroundFlux(users []traffic.User) ([]float64, error) {
	flux, err := s.sim.Flux(users)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < s.cfg.SmoothPasses; pass++ {
		flux, err = s.net.SmoothOverNeighborhood(flux)
		if err != nil {
			return nil, err
		}
	}
	return flux, nil
}

// Sniffer is the adversary's vantage: a sparse subset of monitored nodes.
type Sniffer struct {
	scenario *Scenario
	nodes    []int
	points   []geom.Point
	lastObs  []float64
}

// NewSniffer picks ceil(fraction*N) random nodes to monitor. The paper
// evaluates fractions from 40% down to 5%.
func (s *Scenario) NewSniffer(fraction float64, src *rng.Source) (*Sniffer, error) {
	if !(fraction > 0 && fraction <= 1) { // NaN fails here too
		return nil, fmt.Errorf("core: sniffer fraction %v outside (0, 1]", fraction)
	}
	count := int(math.Ceil(fraction * float64(s.net.Len())))
	return s.NewSnifferCount(count, src)
}

// NewSnifferCount picks exactly count random nodes to monitor.
func (s *Scenario) NewSnifferCount(count int, src *rng.Source) (*Sniffer, error) {
	nodes, err := traffic.PickSamplingNodes(s.net, count, src)
	if err != nil {
		return nil, fmt.Errorf("core: sniffer: %w", err)
	}
	points := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		points[i] = s.net.Pos(n)
	}
	return &Sniffer{scenario: s, nodes: nodes, points: points}, nil
}

// Nodes returns the monitored node indices.
func (sn *Sniffer) Nodes() []int { return append([]int(nil), sn.nodes...) }

// Points returns the monitored node positions.
func (sn *Sniffer) Points() []geom.Point { return append([]geom.Point(nil), sn.points...) }

// Observe simulates one measurement window: the users' combined flux,
// smoothed, sampled at the monitored nodes, with optional multiplicative
// measurement noise of the given sigma (0 = noise-free; a negative or
// non-finite sigma is an error). The observation is retained for a
// subsequent Localize call.
func (sn *Sniffer) Observe(users []traffic.User, noiseSigma float64, src *rng.Source) ([]float64, error) {
	if !(noiseSigma >= 0) || math.IsInf(noiseSigma, 1) {
		return nil, fmt.Errorf("core: noise sigma %v is not finite and non-negative", noiseSigma)
	}
	flux, err := sn.scenario.GroundFlux(users)
	if err != nil {
		return nil, err
	}
	m, err := traffic.Sample(flux, sn.nodes)
	if err != nil {
		return nil, err
	}
	if noiseSigma > 0 {
		m = m.AddNoise(noiseSigma, src)
	}
	sn.lastObs = m.Flux
	return append([]float64(nil), m.Flux...), nil
}

// Problem builds the NLS fitting problem for an observation vector (readings
// aligned with Points).
func (sn *Sniffer) Problem(observation []float64) (*fit.Problem, error) {
	return fit.NewProblem(sn.scenario.model, sn.points, observation)
}

// NewFaultInjector builds a fault injector sized to this sniffer's monitored
// nodes. Seed it from the trial's seed stream so degraded trials stay
// deterministic at any worker count (see internal/fault).
func (sn *Sniffer) NewFaultInjector(cfg fault.Config, seed uint64) (*fault.Injector, error) {
	return fault.NewInjector(cfg, len(sn.nodes), seed)
}

// NewAdversary builds a Byzantine adversary over this sniffer's monitored
// nodes. Tampered readings compose with a fault injector by applying the
// adversary first — a compromised sensor's report can still be lost or
// delayed downstream.
// Seed it from the trial's seed stream; which sensors lie is then a pure
// function of that seed (see fault.Adversary).
func (sn *Sniffer) NewAdversary(cfg fault.AdversaryConfig, seed uint64) (*fault.Adversary, error) {
	return fault.NewAdversary(cfg, len(sn.points), seed)
}

// ProblemMasked builds the NLS fitting problem over the delivered reports of
// a degraded observation only; missing sensors simply drop out of the fit.
// It returns fit.ErrAllMasked when nothing was delivered.
func (sn *Sniffer) ProblemMasked(obs fault.Observation) (*fit.Problem, error) {
	return fit.NewProblemMasked(sn.scenario.model, sn.points, obs.Readings, nil, obs.Present)
}

// LocalizeMasked runs the instant-localization attack on a degraded
// observation, fitting only the sensors that delivered a report.
func (sn *Sniffer) LocalizeMasked(obs fault.Observation, numUsers int, opts fit.Options, src *rng.Source) (fit.Result, error) {
	prob, err := sn.ProblemMasked(obs)
	if err != nil {
		return fit.Result{}, err
	}
	return fit.Localize(prob, numUsers, opts, src)
}

// NewFingerprintDB precomputes the coarse-search fingerprint database for
// this sniffer's vantage: one model flux signature per grid cell, sampled at
// the monitored nodes. Pass the result to instant localization through
// fit.Options.Coarse to shortlist candidates before the exact search; the
// tracker builds its own database when TrackerConfig.Coarse is enabled.
func (sn *Sniffer) NewFingerprintDB(cfg fingerprint.CoarseConfig, workers int, m *obs.Metrics) (*fingerprint.DB, error) {
	return fingerprint.NewDB(sn.scenario.model, sn.points, cfg, workers, m)
}

// Localize runs the instant-localization attack (§5.A) on the most recent
// observation.
func (sn *Sniffer) Localize(numUsers int, opts fit.Options, src *rng.Source) (fit.Result, error) {
	if sn.lastObs == nil {
		return fit.Result{}, errors.New("core: Localize requires a prior Observe call")
	}
	prob, err := sn.Problem(sn.lastObs)
	if err != nil {
		return fit.Result{}, err
	}
	return fit.Localize(prob, numUsers, opts, src)
}

// TrackerConfig tunes a tracker created by NewTracker. Zero values take the
// paper's defaults (N=1000, M=10, VMax=5).
type TrackerConfig struct {
	N    int
	M    int
	VMax float64
	// Search configures the tracker's inner candidate search, including the
	// robust-fitting defense against Byzantine sensors: setting
	// Search.Robust.Mode to fit.RobustBoth makes every round derive
	// per-sensor trust multipliers from the fit's own residuals and re-rank
	// on the reweighted problem (see fit.RobustConfig). The
	// tracker derives Search.Workers, Search.Metrics and Search.Coarse from
	// Workers, Metrics and Coarse below; a preset Search.Coarse is an error.
	Search            fit.Options
	UniformWeights    bool // disable §4.D importance weighting (ablation)
	ActiveSetLimit    int  // cap on users searched per round (§5.C regime)
	HeadingPrediction bool // §4.C refinement: dead-reckoned prediction discs
	// Coarse, when Enabled, precomputes a fingerprint database over the
	// sniffer's monitored nodes and shortlists each user's candidates by
	// coarse cell score before the exact Gram/NNLS ranking runs each round
	// (see internal/fingerprint and fit.Coarse). TopK at or above N keeps
	// every candidate and degrades to the exact search byte for byte.
	Coarse fingerprint.CoarseConfig
	// DBCache, when non-nil, memoizes the coarse prestage's fingerprint
	// database builds across trackers sharing the cache (repeated trials,
	// the tiles of a sharded field, benchmark repeats); see
	// fingerprint.Cache. Caching never changes tracker output.
	DBCache *fingerprint.Cache
	// Shards splits the field into a Rows×Cols tile grid tracked by
	// internal/shard: each tile owns its sensors, its fingerprint database,
	// and an independent tracker, and users migrate between tiles as their
	// estimates cross seams. The zero Grid (0×0) keeps the single unsharded
	// tracker. Only NewStepTracker and NewShardedTracker honor it; NewTracker
	// always builds the plain tracker.
	Shards shard.Grid
	// TileCapacity caps users per tile in a sharded tracker, with
	// deterministic admission redirect and spill accounting (see
	// shard.Config.TileCapacity). 0 = unlimited.
	TileCapacity int
	// InitialPositions, when set alongside Shards (length = user count),
	// seeds each user's owning tile from its starting position; see
	// shard.Config.InitialPositions.
	InitialPositions []geom.Point
	// Workers bounds the goroutines inside one tracker round (prediction,
	// candidate scoring, update); 0 means GOMAXPROCS, 1 forces serial.
	// Output is identical at any value (see smc.Config.Workers).
	Workers int
	// Metrics, when non-nil, receives the tracker's smc.step.* work counters
	// and latency histogram plus the inner search's fit.* counters. Metrics
	// are write-only: enabling them never changes tracker output (see
	// smc.Config.Metrics and internal/obs).
	Metrics *obs.Metrics
	// Trace, when non-nil, receives one structured obs.Span per tracker
	// round (see smc.Config.Trace).
	Trace *obs.Trace
}

// NewTracker builds a Sequential Monte Carlo tracker (Algorithm 4.1) that
// consumes this sniffer's observations.
func (sn *Sniffer) NewTracker(numUsers int, cfg TrackerConfig, seed uint64) (*smc.Tracker, error) {
	return smc.New(sn.trackerTemplate(numUsers, cfg), seed)
}

// trackerTemplate maps a TrackerConfig onto the smc.Config both the plain
// and the sharded constructors start from.
func (sn *Sniffer) trackerTemplate(numUsers int, cfg TrackerConfig) smc.Config {
	return smc.Config{
		Model:             sn.scenario.model,
		SamplePoints:      sn.points,
		NumUsers:          numUsers,
		N:                 cfg.N,
		M:                 cfg.M,
		VMax:              cfg.VMax,
		Search:            cfg.Search,
		UniformWeights:    cfg.UniformWeights,
		ActiveSetLimit:    cfg.ActiveSetLimit,
		HeadingPrediction: cfg.HeadingPrediction,
		Coarse:            cfg.Coarse,
		DBCache:           cfg.DBCache,
		Workers:           cfg.Workers,
		Metrics:           cfg.Metrics,
		Trace:             cfg.Trace,
	}
}

// StepTracker is the round-stepping surface shared by the plain smc.Tracker
// and the sharded shard.Field, so experiment, benchmark, and serving code
// threads one code path for both. WorkTotals exposes the cumulative NNLS
// effort for observability; it feeds dashboards and schedulers only and
// never influences tracker output.
type StepTracker interface {
	Step(t float64, measured []float64) (smc.StepResult, error)
	StepRound(r smc.Round) (smc.StepResult, error)
	Steps() int
	WorkTotals() (solves, iters uint64)
}

var (
	_ StepTracker = (*smc.Tracker)(nil)
	_ StepTracker = (*shard.Field)(nil)
)

// NewShardedTracker builds a tiled multi-shard tracker (internal/shard)
// over this sniffer's vantage: cfg.Shards tiles, each owning its sensors
// and an independent SMC tracker, coordinated with deterministic cross-tile
// handoff. cfg.Workers bounds both the tile fan-out and each tile's inner
// round. A 1×1 grid reproduces NewTracker's output byte for byte.
func (sn *Sniffer) NewShardedTracker(numUsers int, cfg TrackerConfig, seed uint64) (*shard.Field, error) {
	grid := cfg.Shards
	if grid.Tiles() == 0 {
		grid = shard.Grid{Rows: 1, Cols: 1}
	}
	return shard.New(shard.Config{
		Tracker:          sn.trackerTemplate(numUsers, cfg),
		Grid:             grid,
		InitialPositions: cfg.InitialPositions,
		TileCapacity:     cfg.TileCapacity,
	}, seed)
}

// NewStepTracker builds the tracker cfg asks for: the sharded coordinator
// when cfg.Shards names a grid (even 1×1), the plain tracker otherwise.
func (sn *Sniffer) NewStepTracker(numUsers int, cfg TrackerConfig, seed uint64) (StepTracker, error) {
	if cfg.Shards.Tiles() > 0 {
		return sn.NewShardedTracker(numUsers, cfg, seed)
	}
	return sn.NewTracker(numUsers, cfg, seed)
}
