// Package smc implements the Sequential Monte Carlo Estimation of
// Algorithm 4.1 (§4.B–E): per-user weighted sample sets approximate the
// posterior position distribution P(p_t | o_1, ..., o_t); each observation
// round runs prediction (uniform discs of radius v_max·Δt, Eq 4.2),
// filtering (keep the top-M positions by NLS objective), importance-weight
// updates (Eq 4.3 with P(o|P(i)) ≈ 1/‖F−F′‖), and asynchronous updating
// (users whose best-fit stretch collapses to zero are left untouched and
// their Δt keeps growing).
package smc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/par"
	"fluxtrack/internal/rng"
)

// DefaultN is the per-user sample count N a zero Config.N takes (the
// paper's).
const DefaultN = 1000

const (
	// idleStretchFrac: a user whose fitted stretch factor falls below this
	// fraction of the round's largest fitted stretch is considered idle
	// (no data collection this window) and is not updated (§4.E).
	idleStretchFrac = 0.05
	// staleAttenuation sets how much a delayed report's influence decays in
	// the fit of a round carrying Age: a report that is a rounds old gets
	// its objective weight divided by 1 + staleAttenuation·a, so stale flux
	// constrains the fit more loosely than fresh flux instead of being
	// trusted verbatim (the §4.E asynchronous regime under the
	// delayed-delivery fault of internal/fault).
	staleAttenuation = 0.5
	// incumbentFitLimit bounds the joint incumbent fit of the active-set
	// selection: when more than this many initialized users would be
	// pinned, the selection skips the O(k²) Gram fit and falls back to a
	// deterministic staleness ordering (uninitialized users first in
	// ascending index order, then initialized users by ascending
	// lastUpdate with index tie-breaks).
	incumbentFitLimit = 512
)

// Config configures a Tracker.
type Config struct {
	Model        *fluxmodel.Model
	SamplePoints []geom.Point // positions of the sniffed nodes (fixed)
	NumUsers     int          // K: number of mobile users to track

	// Bounds restricts where the tracker believes its users can be: the
	// uniform bootstrap draws of an uninitialized user, the clamping of
	// prediction discs, the field-center fallback estimate, and the
	// fingerprint grid of the coarse prestage all use Bounds instead of the
	// model's full field. The zero rectangle means the model field — the
	// paper's single-field tracker — which keeps existing output
	// byte-identical. A sharded field (internal/shard) sets Bounds to each
	// tile's halo-inflated rectangle so a tile only hypothesizes positions
	// on its own ground.
	Bounds geom.Rect

	// N is the number of predicted samples per user per round (paper: 1000).
	N int
	// M is the number of kept representatives per user (paper: 10).
	M int
	// VMax is the maximum user speed per unit of observation time; the
	// prediction disc radius is VMax times the per-user elapsed time
	// (paper: 5 per detection interval). Zero or negative means 5; NaN or
	// infinite is an error.
	VMax float64
	// Search tunes the inner candidate-ranking search. Setting
	// Search.Robust.Mode arms the robust-fitting defense against Byzantine
	// sensors in every round: the round's search runs twice, down-weighting
	// sensors whose residuals fail the leave-one-sensor-out and Huber
	// consistency checks (see fit.RobustConfig). The reweighting is a serial
	// pure function of the first pass, so robust rounds keep the tracker's
	// byte-identical worker-invariance contract.
	// The tracker derives Search.Workers and Search.Metrics from Workers and
	// Metrics, and Search.Coarse from Coarse; New rejects a preset
	// Search.Coarse.
	Search fit.Options
	// Coarse enables the coarse-to-fine prestage of the inner search: New
	// precomputes a fingerprint database over SamplePoints and every round's
	// candidate search shortlists Coarse.TopK candidates per user by
	// fingerprint-cell score before the exact Gram/NNLS ranking (see
	// internal/fingerprint and fit.Coarse). TopK at or above N degrades to
	// the exact search with byte-identical output.
	Coarse fingerprint.CoarseConfig
	// DBCache, when non-nil, memoizes the fingerprint database build of the
	// coarse prestage: trackers sharing a cache and asking for the same
	// (model, bounds, sample layout, grid resolution) share one immutable
	// database instead of each paying the build (see fingerprint.Cache). A
	// database is a pure function of that key, so caching never changes
	// tracker output. Nil builds directly, as before.
	DBCache *fingerprint.Cache
	// UniformWeights disables the importance weighting of §4.D: kept
	// samples are treated equally in the next prediction phase (the paper's
	// pre-importance-sampling variant). Exists for the ablation study.
	UniformWeights bool
	// ActiveSetLimit caps how many users join the per-round candidate
	// search when tracking many users (the trace-driven setting of §5.C,
	// 20 coexisting users). Zero disables the cap: every round searches
	// every user jointly. When enabled, the round first fits stretches
	// with all initialized users pinned at their incumbent positions, then
	// searches only the users that appear active (stretch above the idle
	// threshold), filling spare slots with uninitialized users and, when
	// the incumbent fit explains the observation poorly, the stalest users.
	// The cap also applies inside an explicit Round.Users subset larger than
	// the limit — a sharded tile owning thousands of users selects its
	// active set among the owned users the same way.
	ActiveSetLimit int
	// HeadingPrediction enables the mobility-model refinement the paper
	// sketches in §4.C: instead of discs centered on the previous samples,
	// prediction discs are centered on the dead-reckoned position
	// (previous sample plus the estimated per-user velocity times Δt),
	// with the disc radius halved — the heading carries the information
	// the larger blind disc would otherwise have to cover.
	HeadingPrediction bool
	// Workers bounds the goroutines running one tracker round: the per-user
	// prediction draws, the incumbent-fit kernel columns of the active-set
	// selection, the candidate-scoring loops of the inner search, and the
	// per-user update/estimate bookkeeping. Every user owns an independent
	// RNG substream (derived from the tracker seed and the user index), so
	// tracker output is byte-identical at any worker count. Zero means one
	// worker per CPU (GOMAXPROCS); 1 forces the sequential path.
	Workers int
	// Metrics, when non-nil, receives the tracker's per-round work counters
	// (smc.step.*), the smc.step.wall_ms latency histogram, and the
	// fit.search.* and fit.nnls.* counters of the inner search.
	// Metrics are write-only: enabling them never changes tracker output,
	// and every smc.step.* counter is worker-count-invariant. Nil disables
	// instrumentation at the cost of one branch per Step.
	Metrics *obs.Metrics
	// Trace, when non-nil, receives one structured obs.Span per successful
	// Step: phase wall times (predict/filter/update), candidate and
	// active-set counts, masked/stale sensor counts, and the NNLS effort
	// the round burned. Nil disables span collection.
	Trace *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = DefaultN
	}
	if c.M <= 0 {
		c.M = 10
	}
	if c.VMax <= 0 {
		c.VMax = 5
	}
	if c.Search.TopM < c.M {
		c.Search.TopM = c.M
	}
	if c.Search.MaxExhaustive <= 0 {
		// Tracking evaluates N candidates per user every round; full Nᴷ
		// enumeration is overkill once the sample sets have concentrated,
		// so default to the iterated conditional search much earlier than
		// the localization default.
		c.Search.MaxExhaustive = 20000
	}
	c.Search.Workers = c.Workers
	c.Search.Metrics = c.Metrics
	if c.Coarse.Enabled {
		c.Coarse = c.Coarse.WithDefaults()
	}
	return c
}

// userState is one user's slot: the persistent weighted sample set and
// asynchronous-update bookkeeping (the embedded UserSnapshot, which is what
// checkpoints and seam migration carry), plus slot-local resources that stay
// with the (tracker, user) pair.
type userState struct {
	UserSnapshot
	// src is this user's private RNG substream: all of the user's Monte
	// Carlo draws come from it, so prediction for different users can run
	// on different workers without perturbing each other's streams.
	src *rng.Source
	// spareSamples/spareWeights are the update double-buffer: each update
	// writes the next kept set into the spares and swaps, so the
	// steady-state filtering step recycles two fixed M-slot buffers per
	// user instead of allocating fresh ones every round. They never leak:
	// estimate and ExportState copy, so no caller holds either buffer.
	spareSamples []geom.Point
	spareWeights []float64
}

// Tracker runs Algorithm 4.1 over a stream of flux observations. It is not
// safe for concurrent use by multiple goroutines, but it parallelizes each
// round internally (see Config.Workers): every user owns a deterministic
// RNG substream, so per-user prediction and update shard cleanly, and the
// reusable fit.Searcher — whose candidate-column arenas and per-worker
// scratches are shared by every round's incumbent fits and composition
// searches — keeps the steady-state filtering step allocation-flat in N.
type Tracker struct {
	cfg Config
	// users holds per-user SMC state sparsely: a slot materializes (with
	// its lazily created RNG substream) the first time the user is stepped,
	// moved in or restored, so a tracker responsible for a slice of a much
	// larger user population — one tile of a sharded field over 10⁵–10⁶
	// users — pays memory only for the users it has actually seen. Lazy substream
	// creation is invisible to determinism: a stream is a pure function of
	// (seed, user index) and its draw count, regardless of when the Source
	// object was built. Entries are created only between rounds or in the
	// serial prologue of a round (ensure), so the parallel phases do
	// concurrent map reads with no writes.
	users    map[int]*userState
	steps    int
	searcher *fit.Searcher
	seed     uint64
	// lastT is the time of the last accepted round (−Inf before the first);
	// StepRound rejects any round not strictly later.
	lastT float64

	// met holds the bound observability counter handles; the zero value is
	// the disabled instrument set (every call one nil branch).
	met trackerMetrics

	// Per-round prediction buffers, reused across Steps: candidate and
	// origin slots for up to NumUsers×N draws.
	candArena []geom.Point
	origArena []int
	candBuf   [][]geom.Point
	origBuf   [][]int

	// Per-round scratch reused across Steps so steady-state rounds stay
	// allocation-flat: the identity subset of the full path, the
	// active-set selection's worklists, and the sensor-weight buffer.
	identBuf   []int
	weightsBuf []float64
	sel        activeScratch
}

// activeScratch pools the working storage of selectActive across rounds.
type activeScratch struct {
	initialized   []int
	uninitialized []int
	positions     []geom.Point
	byStretch     []userStretch
	stale         []int
	subset        []int
	in            map[int]bool
}

// userStretch pairs a user with its incumbent-fit stretch for the
// activity-ordered sort of selectActive.
type userStretch struct {
	user int
	c    float64
}

// trackerMetrics caches the tracker's counter handles (bound once in New)
// so Step never pays a registry lookup. All counters are deterministic work
// counts; only the wall histogram is wall-clock.
type trackerMetrics struct {
	m             *obs.Metrics
	shard         int            // seed-derived counter shard, decorrelating parallel trials
	steps         *obs.Counter   // smc.step.count
	candidates    *obs.Counter   // smc.step.candidates: predicted positions drawn
	searchedUsers *obs.Counter   // smc.step.searched_users: active-set sizes
	activeUsers   *obs.Counter   // smc.step.active_users: users actually updated
	maskedSensors *obs.Counter   // smc.step.masked_sensors
	staleSensors  *obs.Counter   // smc.step.stale_sensors
	skipped       *obs.Counter   // smc.step.skipped_all_masked
	wall          *obs.Histogram // smc.step.wall_ms
}

func (tm *trackerMetrics) bind(m *obs.Metrics, seed uint64) {
	if m == nil {
		return
	}
	*tm = trackerMetrics{
		m:             m,
		shard:         int(seed),
		steps:         m.Counter("smc.step.count"),
		candidates:    m.Counter("smc.step.candidates"),
		searchedUsers: m.Counter("smc.step.searched_users"),
		activeUsers:   m.Counter("smc.step.active_users"),
		maskedSensors: m.Counter("smc.step.masked_sensors"),
		staleSensors:  m.Counter("smc.step.stale_sensors"),
		skipped:       m.Counter("smc.step.skipped_all_masked"),
		wall:          m.Histogram("smc.step.wall_ms", obs.DurationBucketsMs),
	}
}

// Estimate is one user's per-round output.
type Estimate struct {
	// Mean is the importance-weighted mean of the kept samples — the
	// tracker's position estimate.
	Mean geom.Point
	// Best is the kept sample with the lowest objective this round.
	Best geom.Point
	// Samples and Weights expose the kept representatives (aligned).
	Samples []geom.Point
	Weights []float64
	// Active reports whether this user was updated this round; inactive
	// users were judged idle by the stretch-collapse test of §4.E.
	Active bool
	// Stretch is the fitted integrated stretch factor c = s/r this round.
	Stretch float64
}

// StepResult is the tracker output for one observation round.
type StepResult struct {
	Time      float64
	Estimates []Estimate
	Objective float64 // objective of the best composition this round
}

// userStreamSeed derives user j's RNG substream seed from the tracker seed:
// a splitmix64 finalizer over seed + (j+1)·golden-ratio, so neighboring
// users land in statistically independent stream regions. The derivation
// depends only on (seed, j) — never on the worker count or on how many
// draws other users made — which is what makes tracker output byte-identical
// at any Config.Workers value.
func userStreamSeed(seed uint64, j int) uint64 {
	z := seed + uint64(j+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Tracker. SamplePoints and the model must be consistent;
// seed fixes all Monte Carlo draws.
func New(cfg Config, seed uint64) (*Tracker, error) {
	// A NaN bound would survive withDefaults and freeze every prediction
	// disc; an infinite one scatters predictions to the field's corners.
	if math.IsNaN(cfg.VMax) || math.IsInf(cfg.VMax, 0) {
		return nil, fmt.Errorf("smc: VMax %v is not finite", cfg.VMax)
	}
	cfg = cfg.withDefaults()
	if cfg.Model == nil {
		return nil, errors.New("smc: nil model")
	}
	if len(cfg.SamplePoints) == 0 {
		return nil, errors.New("smc: no sampling points")
	}
	if cfg.NumUsers <= 0 {
		return nil, fmt.Errorf("smc: NumUsers must be positive, got %d", cfg.NumUsers)
	}
	if cfg.M > cfg.N {
		return nil, fmt.Errorf("smc: M (%d) must not exceed N (%d)", cfg.M, cfg.N)
	}
	if cfg.Search.Coarse != nil {
		return nil, errors.New("smc: Search.Coarse must not be preset; the tracker builds it from Coarse")
	}
	if cfg.Bounds.Width() <= 0 || cfg.Bounds.Height() <= 0 {
		cfg.Bounds = cfg.Model.Field()
	}
	tr := &Tracker{
		cfg:      cfg,
		users:    make(map[int]*userState),
		searcher: fit.NewSearcher(),
		seed:     seed,
		lastT:    math.Inf(-1),
	}
	if cfg.Coarse.Enabled {
		// Precompute the fingerprint database once for the tracker's
		// lifetime: the sample layout is fixed, so every round's search
		// shares the same grid signatures. The grid covers Bounds — the
		// whole field for a plain tracker, the tile for a sharded one — and
		// a shared DBCache turns repeated builds over the same key into one.
		db, err := cfg.DBCache.Get(cfg.Model, cfg.Bounds, cfg.SamplePoints, cfg.Coarse, cfg.Workers, cfg.Metrics)
		if err != nil {
			return nil, fmt.Errorf("smc: fingerprint database: %w", err)
		}
		tr.cfg.Search.Coarse = &fit.Coarse{DB: db, TopK: tr.cfg.Coarse.TopK}
	}
	// Bind the observability handles once; the searcher needs an explicit
	// bind because the incumbent fits of the active-set selection go
	// through EvaluateWorkers, which takes no Options.
	tr.met.bind(cfg.Metrics, seed)
	tr.searcher.SetMetrics(cfg.Search.Metrics)
	return tr, nil
}

// ensure materializes user j's state slot (and its RNG substream) if this
// tracker has never touched the user before. Must only be called from serial
// code — the constructor path, a round's prologue, or the migration helpers —
// because it writes the user map.
func (tr *Tracker) ensure(j int) *userState {
	u := tr.users[j]
	if u == nil {
		u = &userState{src: rng.New(userStreamSeed(tr.seed, j))}
		tr.users[j] = u
	}
	return u
}

// Steps returns how many observation rounds the tracker has consumed.
func (tr *Tracker) Steps() int { return tr.steps }

// ErrAllMasked is returned by StepRound when a round's observation vector
// is entirely masked — every sensor failed, lost its report, or has nothing
// delivered — so there is no flux to fit against. The tracker's state is
// left untouched: the round is skipped, the per-user Δt keeps growing (the
// §4.E asynchronous regime), and the next delivered observation resumes
// tracking. Test with errors.Is.
var ErrAllMasked = errors.New("smc: observation entirely masked")

// ErrBadRound is returned, wrapped, for a malformed round: see Round.Check,
// plus a time not later than the last accepted round and an invalid user
// subset. A rejected round leaves the tracker untouched. Test with
// errors.Is.
var ErrBadRound = errors.New("smc: malformed observation round")

// Round is one observation round of Algorithm 4.1.
type Round struct {
	// T is the observation time. It must be finite and later than every
	// round the tracker accepted before; the prediction disc of a user last
	// updated at t' has radius VMax·(T − t') (Eq 4.2).
	T float64
	// Measured holds the flux readings, aligned with the sample points.
	Measured []float64
	// Present marks which sensors delivered a report (nil means all).
	// Masked sensors drop out of the NLS fit entirely, so their readings
	// may be anything, NaN included.
	Present []bool
	// Age gives each report's staleness in rounds (nil means all fresh).
	// Stale reports keep their column with deflated weight (see
	// staleAttenuation), so the tracker degrades gracefully under delayed
	// delivery (internal/fault) instead of trusting old flux verbatim.
	Age []int
	// Users, when non-nil, restricts the round to a strictly ascending
	// subset of users: only they join the candidate search and are updated,
	// everyone else keeps their state, exactly as an active-set round
	// treats unselected users. A subset larger than ActiveSetLimit runs the
	// active-set selection among its own users. Estimates[i] then belongs
	// to Users[i], so a caller responsible for a small slice of a huge
	// population (one tile of a sharded field) pays O(len(Users)) per
	// round. nil means every user, with Estimates[j] belonging to user j.
	Users []int
	// Dst, when it has the capacity, is reused as the estimate buffer (its
	// backing array is overwritten and returned inside the result); pass
	// the previous round's Estimates back to keep steady-state stepping
	// allocation-flat. The estimates still carry freshly copied
	// Samples/Weights, so retaining an Estimate across rounds stays safe.
	Dst []Estimate
}

// Check reports whether r is a well-formed round for a tracker over the
// given number of sample points: a finite T, Measured of that length,
// Present and Age nil or of that length, no negative age, and a finite
// reading on every delivered sensor. Every error wraps ErrBadRound. It is
// the one shape check of a round; StepRound, the sharded field and the
// serving layer all call it.
func (r Round) Check(sensors int) error {
	if math.IsNaN(r.T) || math.IsInf(r.T, 0) {
		return fmt.Errorf("%w: time %v is not finite", ErrBadRound, r.T)
	}
	if len(r.Measured) != sensors {
		return fmt.Errorf("%w: %d readings, want %d", ErrBadRound, len(r.Measured), sensors)
	}
	if r.Present != nil && len(r.Present) != sensors {
		return fmt.Errorf("%w: present mask length %d, want %d", ErrBadRound, len(r.Present), sensors)
	}
	if r.Age != nil && len(r.Age) != sensors {
		return fmt.Errorf("%w: age vector length %d, want %d", ErrBadRound, len(r.Age), sensors)
	}
	for i, a := range r.Age {
		if a < 0 {
			return fmt.Errorf("%w: age %d of sensor %d is negative", ErrBadRound, a, i)
		}
	}
	for i, v := range r.Measured {
		if (r.Present == nil || r.Present[i]) && (math.IsNaN(v) || math.IsInf(v, 0)) {
			return fmt.Errorf("%w: reading %d is not finite (%v)", ErrBadRound, i, v)
		}
	}
	return nil
}

// Step consumes the flux observation taken at time t (readings aligned with
// cfg.SamplePoints) and returns the per-user estimates: StepRound with
// every sensor delivered fresh and every user stepped.
func (tr *Tracker) Step(t float64, measured []float64) (StepResult, error) {
	return tr.StepRound(Round{T: t, Measured: measured})
}

// StepRound runs one round of Algorithm 4.1. A malformed round (see
// Round.Check), a T not later than the last accepted round, or a Users
// subset that is not strictly ascending within [0, NumUsers) returns an
// error wrapping ErrBadRound; a round with no delivered reports returns
// ErrAllMasked. Either way the tracker is left untouched. The tracker
// borrows r's slices only for the duration of the call.
func (tr *Tracker) StepRound(r Round) (StepResult, error) {
	// Observation is write-only: the span and counters below never feed
	// back into the round, so enabling them cannot perturb tracker output.
	observed := tr.met.m != nil || tr.cfg.Trace != nil
	var t0 time.Time
	if observed {
		t0 = time.Now()
	}
	n := len(tr.cfg.SamplePoints)
	if err := r.Check(n); err != nil {
		return StepResult{}, err
	}
	if !(r.T > tr.lastT) {
		return StepResult{}, fmt.Errorf("%w: time %v is not after the last accepted round (%v)",
			ErrBadRound, r.T, tr.lastT)
	}
	if r.Users != nil {
		prev := -1
		for _, j := range r.Users {
			if j <= prev || j >= tr.cfg.NumUsers {
				return StepResult{}, fmt.Errorf("%w: user subset %v is not strictly ascending within [0,%d)",
					ErrBadRound, r.Users, tr.cfg.NumUsers)
			}
			prev = j
		}
		if len(r.Users) == 0 {
			return StepResult{}, fmt.Errorf("%w: empty user subset", ErrBadRound)
		}
	}
	t, present, age := r.T, r.Present, r.Age
	delivered := n
	if present != nil {
		delivered = 0
		for _, p := range present {
			if p {
				delivered++
			}
		}
		if delivered == 0 {
			tr.met.skipped.Inc(tr.met.shard)
			return StepResult{}, fmt.Errorf("smc: round at t=%v: %w", t, ErrAllMasked)
		}
		if delivered == n {
			present = nil // full delivery: take the exact unmasked path
		}
	}
	staleCount := 0
	for i, a := range age {
		if a > 0 && (present == nil || present[i]) {
			staleCount++
		}
	}
	// report is the output alignment: the caller's subset, else everyone.
	report := r.Users
	if report == nil {
		report = tr.identitySubset()
	}
	var span obs.Span
	var spanPtr *obs.Span
	var solves0, iters0 uint64
	if observed {
		span = obs.Span{
			Seed: tr.seed, Step: tr.steps, Time: t, Tile: -1,
			Users:         len(report),
			MaskedSensors: n - delivered,
			StaleSensors:  staleCount,
		}
		// NNLS work baseline before the active-set selection, so the
		// incumbent fit's solves are attributed to this round's span.
		solves0, iters0 = tr.searcher.WorkTotals()
		spanPtr = &span
	}

	var weights []float64
	if staleCount > 0 {
		if cap(tr.weightsBuf) < n {
			tr.weightsBuf = make([]float64, n)
		}
		weights = tr.weightsBuf[:n]
		for i, a := range age {
			weights[i] = 1
			if a > 0 {
				weights[i] /= 1 + staleAttenuation*float64(a)
			}
		}
	}
	prob, err := fit.NewProblemMasked(tr.cfg.Model, tr.cfg.SamplePoints, r.Measured, weights, present)
	if err != nil {
		return StepResult{}, err
	}

	// A subset beyond the cap runs the active-set selection among its own
	// users: a sharded tile owning thousands of users searches only the ones
	// that look active this round.
	subset := report
	if limit := tr.cfg.ActiveSetLimit; limit > 0 && len(subset) > limit {
		if subset, err = tr.selectActive(prob, subset); err != nil {
			return StepResult{}, err
		}
	}
	out, err := tr.stepSubset(prob, t, subset, report, r.Dst, spanPtr)
	if err != nil {
		return out, err
	}
	if observed {
		solves1, iters1 := tr.searcher.WorkTotals()
		span.NNLSSolves = solves1 - solves0
		span.NNLSIters = iters1 - iters0
		span.WallNs = time.Since(t0).Nanoseconds()
		tr.recordStep(&span)
	}
	return out, nil
}

// recordStep flushes one completed round into the bound counters, the wall
// histogram, and the trace ring. Every counter carries a deterministic work
// count; only the wall histogram (and the span's *Ns fields) are wall-clock.
func (tr *Tracker) recordStep(span *obs.Span) {
	if tm := &tr.met; tm.m != nil {
		w := tm.shard
		tm.steps.Inc(w)
		tm.candidates.Add(w, uint64(span.Candidates))
		tm.searchedUsers.Add(w, uint64(span.Searched))
		tm.activeUsers.Add(w, uint64(span.Active))
		tm.maskedSensors.Add(w, uint64(span.MaskedSensors))
		tm.staleSensors.Add(w, uint64(span.StaleSensors))
		tm.wall.Observe(w, float64(span.WallNs)/1e6)
	}
	tr.cfg.Trace.Add(*span)
}

// identitySubset returns the pooled [0, NumUsers) subset of the full-round
// path.
func (tr *Tracker) identitySubset() []int {
	if cap(tr.identBuf) < tr.cfg.NumUsers {
		tr.identBuf = make([]int, tr.cfg.NumUsers)
		for j := range tr.identBuf {
			tr.identBuf[j] = j
		}
	}
	return tr.identBuf[:tr.cfg.NumUsers]
}

// stalestFirst returns the users ordered stalest first (lowest
// LastUpdate). Users updated in the same round — the common case right
// after bootstrap — come in ascending index order, so the active-set
// membership never depends on sort internals. The result reuses the
// selection scratch.
func (tr *Tracker) stalestFirst(users []int) []int {
	stale := append(tr.sel.stale[:0], users...)
	sort.Slice(stale, func(a, b int) bool {
		ua, ub := stale[a], stale[b]
		if tr.users[ua].LastUpdate != tr.users[ub].LastUpdate {
			return tr.users[ua].LastUpdate < tr.users[ub].LastUpdate
		}
		return ua < ub
	})
	tr.sel.stale = stale
	return stale
}

// selectActive picks the users that join this round's candidate search (at
// most ActiveSetLimit): users whose stretch in the incumbent-position fit is
// above the idle threshold, then uninitialized users needing bootstrap, then
// — when the incumbent fit explains the observation poorly — the users with
// the largest accumulated Δt (most positional uncertainty), all drawn from
// the strictly ascending candidates pool. The returned subset aliases
// tracker-owned scratch valid until the next selection.
func (tr *Tracker) selectActive(prob *fit.Problem, candidates []int) ([]int, error) {
	limit := tr.cfg.ActiveSetLimit
	sc := &tr.sel

	sc.initialized = sc.initialized[:0]
	sc.uninitialized = sc.uninitialized[:0]
	for _, j := range candidates {
		if u := tr.users[j]; u != nil && u.Initialized {
			sc.initialized = append(sc.initialized, j)
		} else {
			sc.uninitialized = append(sc.uninitialized, j)
		}
	}
	initialized, uninitialized := sc.initialized, sc.uninitialized
	if len(initialized) == 0 {
		if len(uninitialized) > limit {
			uninitialized = uninitialized[:limit]
		}
		return uninitialized, nil
	}

	subset := sc.subset[:0]
	if sc.in == nil {
		sc.in = make(map[int]bool, limit)
	} else {
		clear(sc.in)
	}
	add := func(j int) bool {
		if len(subset) >= limit || sc.in[j] {
			return false
		}
		subset = append(subset, j)
		sc.in[j] = true
		return true
	}

	if len(initialized) > incumbentFitLimit {
		// Too many pinned users for the joint O(k²) Gram fit to pay off:
		// fall back to a deterministic ordering that needs no fit at all —
		// bootstrap the uninitialized first (ascending index), then refresh
		// the stalest initialized users. This trades per-round activity
		// detection for bounded cost; the stale rotation still visits every
		// user, just over more rounds.
		for _, j := range uninitialized {
			if !add(j) {
				break
			}
		}
		for _, j := range tr.stalestFirst(initialized) {
			if len(subset) >= limit {
				break
			}
			add(j)
		}
		sort.Ints(subset)
		sc.subset = subset
		return subset, nil
	}

	// Incumbent fit: all initialized users pinned at their current best.
	// The per-user kernel columns shard across the tracker's workers.
	if cap(sc.positions) < len(initialized) {
		sc.positions = make([]geom.Point, len(initialized))
	}
	positions := sc.positions[:len(initialized)]
	for i, j := range initialized {
		positions[i] = tr.users[j].Samples[0]
	}
	ev, err := tr.searcher.EvaluateWorkers(prob, positions, tr.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("smc: incumbent fit: %w", err)
	}
	var maxStretch float64
	for _, c := range ev.Stretches {
		maxStretch = math.Max(maxStretch, c)
	}

	// 1. Apparently-active users, strongest first.
	if cap(sc.byStretch) < len(initialized) {
		sc.byStretch = make([]userStretch, len(initialized))
	}
	byStretch := sc.byStretch[:len(initialized)]
	for i, j := range initialized {
		byStretch[i] = userStretch{user: j, c: ev.Stretches[i]}
	}
	sort.Slice(byStretch, func(a, b int) bool {
		// Strongest first; exact stretch ties resolve to the lower user
		// index so the selected membership can never depend on sort
		// internals (sort.Slice is unstable).
		if byStretch[a].c != byStretch[b].c {
			return byStretch[a].c > byStretch[b].c
		}
		return byStretch[a].user < byStretch[b].user
	})
	for _, us := range byStretch {
		if maxStretch > 0 && us.c >= idleStretchFrac*maxStretch {
			add(us.user)
		}
	}
	// 2. Uninitialized users needing bootstrap.
	for _, j := range uninitialized {
		add(j)
	}
	// 3. Poor incumbent fit: stalest users first, since a user that moved
	// far from its incumbent position leaves unexplained flux behind.
	obsNorm := mat.Norm2(prob.Measured())
	if obsNorm > 0 && ev.Objective > 0.3*obsNorm {
		for _, j := range tr.stalestFirst(initialized) {
			add(j)
		}
	}
	if len(subset) == 0 {
		// Nothing looked active: still search the single strongest user so
		// idle rounds cost one cheap ranking and the estimates stay fresh.
		subset = append(subset, byStretch[0].user)
	}
	sort.Ints(subset)
	sc.subset = subset
	return subset, nil
}

// predictBuffers returns k reusable candidate/origin buffers of length N
// each, carved out of the tracker-owned arenas so the steady-state
// prediction phase allocates nothing.
func (tr *Tracker) predictBuffers(k int) ([][]geom.Point, [][]int) {
	n := tr.cfg.N
	need := k * n
	if cap(tr.candArena) < need {
		tr.candArena = make([]geom.Point, need)
	}
	if cap(tr.origArena) < need {
		tr.origArena = make([]int, need)
	}
	if cap(tr.candBuf) < k {
		tr.candBuf = make([][]geom.Point, k)
		tr.origBuf = make([][]int, k)
	}
	cands := tr.candBuf[:k]
	origins := tr.origBuf[:k]
	for i := 0; i < k; i++ {
		cands[i] = tr.candArena[i*n : (i+1)*n : (i+1)*n]
		origins[i] = tr.origArena[i*n : (i+1)*n : (i+1)*n]
	}
	return cands, origins
}

// stepSubset runs one Algorithm 4.1 round with only the subset users in the
// candidate search; the remaining users are treated as idle this round.
// Estimates[i] belongs to report[i], written into dst when it has capacity.
// A non-nil span receives the round's phase timings and work counts; it
// never influences the round itself.
func (tr *Tracker) stepSubset(prob *fit.Problem, t float64, subset []int, report []int, dst []Estimate, span *obs.Span) (StepResult, error) {
	// Materialize every searched user's state serially before fanning out:
	// the parallel phases below only read the user map (and mutate distinct
	// *userState values), so lazy slot creation never races.
	for _, j := range subset {
		tr.ensure(j)
	}
	var mark time.Time
	if span != nil {
		mark = time.Now()
	}
	// Prediction phase (Eq 4.2): candidate sets of size N per subset user,
	// drawn concurrently — each user's draws come from its own substream,
	// so any sharding yields the same candidates.
	candidates, origins := tr.predictBuffers(len(subset))
	par.For(len(subset), tr.cfg.Workers, func(_, i int) {
		tr.predictInto(subset[i], t, candidates[i], origins[i])
	})
	if span != nil {
		now := time.Now()
		span.PredictNs = now.Sub(mark).Nanoseconds()
		mark = now
	}

	// Filtering phase: rank compositions by NLS objective.
	searchOpts := tr.cfg.Search
	searchOpts.TopM = max(tr.cfg.M, searchOpts.TopM)
	res, err := tr.searcher.Search(prob, candidates, searchOpts)
	if err != nil {
		return StepResult{}, err
	}
	if len(res.Best) == 0 {
		return StepResult{}, errors.New("smc: search returned no compositions")
	}
	best := res.Best[0]
	if span != nil {
		now := time.Now()
		span.SearchNs = now.Sub(mark).Nanoseconds()
		mark = now
		span.Searched = len(subset)
		span.Candidates = len(subset) * tr.cfg.N
		span.Objective = best.Objective
	}

	// Asynchronous updating (§4.E): the largest fitted stretch this round
	// sets the activity scale.
	var maxStretch float64
	for _, c := range best.Stretches {
		maxStretch = math.Max(maxStretch, c)
	}

	// Reuse the caller's buffer when it is big enough, so steady-state
	// stepping allocates no estimate array.
	if cap(dst) < len(report) {
		dst = make([]Estimate, len(report))
	}
	ests := dst[:len(report)]
	out := StepResult{Time: t, Objective: best.Objective, Estimates: ests}
	// Update and estimate bookkeeping: independent per user (user j's state
	// and estimate slot are touched by exactly one worker). Subset
	// membership resolves by binary search — subset is strictly ascending —
	// so no per-round membership map is built.
	par.For(len(report), tr.cfg.Workers, func(_, idx int) {
		j := report[idx]
		i := sort.SearchInts(subset, j)
		if i >= len(subset) || subset[i] != j {
			ests[idx] = tr.estimate(j, false, 0)
			return
		}
		stretch := best.Stretches[i]
		active := maxStretch > 0 && stretch >= idleStretchFrac*maxStretch
		if active {
			tr.update(j, t, res.PerUser[i], origins[i])
		}
		ests[idx] = tr.estimate(j, active, stretch)
	})
	tr.steps++
	tr.lastT = t
	if span != nil {
		span.UpdateNs = time.Since(mark).Nanoseconds()
		for j := range out.Estimates {
			if out.Estimates[j].Active {
				span.Active++
			}
		}
	}
	return out, nil
}

// predictInto draws the N candidate positions for user j at time t into the
// provided buffers, per Eq 4.2: uniform in the disc of radius VMax·Δt around
// an origin sample chosen by importance weight. Uninitialized users draw
// uniformly over the tracker bounds (the field, unless Config.Bounds
// narrows it). All randomness comes from user j's substream.
func (tr *Tracker) predictInto(j int, t float64, cands []geom.Point, origins []int) {
	u := tr.users[j] // ensured by stepSubset's serial prologue
	field := tr.cfg.Bounds
	if !u.Initialized {
		for i := range cands {
			cands[i] = u.src.InRect(field)
			origins[i] = -1
		}
		return
	}
	dt := math.Max(t-u.LastUpdate, 0)
	radius := tr.cfg.VMax * dt
	var drift geom.Vec
	if tr.cfg.HeadingPrediction && u.HasVelocity {
		// Dead-reckon by the estimated velocity and shrink the disc: the
		// heading supplies the direction the blind model had to cover.
		drift = u.Velocity.Scale(dt)
		// Never reckon further than the speed bound allows.
		if n := drift.Norm(); n > radius {
			drift = drift.Scale(radius / math.Max(n, 1e-12))
		}
		radius /= 2
	}
	for i := range cands {
		o := u.src.Weighted(u.Weights)
		if o < 0 {
			o = u.src.IntN(len(u.Samples))
		}
		center := u.Samples[o].Add(drift)
		cands[i] = u.src.InDiscClamped(field.Clamp(center), radius, field)
		origins[i] = o
	}
}

// update replaces user j's kept set with the top-M ranked positions and
// refreshes the importance weights per Eq 4.3:
// w_t(i) ∝ w_{t−1}(origin(i)) · P(o_t | P(i)) with P(o|P(i)) ≈ 1/objective.
// The new set is written into the user's spare double-buffer and swapped in,
// so steady-state updates recycle two M-slot buffers instead of allocating.
func (tr *Tracker) update(j int, t float64, ranked []fit.RankedPosition, origins []int) {
	u := tr.users[j] // ensured by stepSubset's serial prologue
	m := min(tr.cfg.M, len(ranked))
	newSamples := u.spareSamples
	if cap(newSamples) < m {
		newSamples = make([]geom.Point, m)
	}
	newSamples = newSamples[:m]
	newWeights := u.spareWeights
	if cap(newWeights) < m {
		newWeights = make([]float64, m)
	}
	newWeights = newWeights[:m]
	var total float64
	for i := 0; i < m; i++ {
		r := ranked[i]
		newSamples[i] = r.Pos
		w := 1.0
		if !tr.cfg.UniformWeights {
			prior := 1.0
			if u.Initialized && origins[r.Index] >= 0 {
				prior = u.Weights[origins[r.Index]]
			}
			w = prior / math.Max(r.Objective, 1e-12)
		}
		newWeights[i] = w
		total += w
	}
	if total <= 0 {
		for i := range newWeights {
			newWeights[i] = 1 / float64(m)
		}
	} else {
		for i := range newWeights {
			newWeights[i] /= total
		}
	}
	dt := t - u.LastUpdate
	u.spareSamples = u.Samples[:0:cap(u.Samples)]
	u.spareWeights = u.Weights[:0:cap(u.Weights)]
	u.Samples = newSamples
	u.Weights = newWeights
	u.LastUpdate = t
	u.Initialized = true

	// Maintain the velocity estimate for heading-informed prediction.
	var mx, my float64
	for i, s := range newSamples {
		mx += newWeights[i] * s.X
		my += newWeights[i] * s.Y
	}
	mean := geom.Pt(mx, my)
	if u.HasPrevMean && dt > 0 {
		u.Velocity = mean.Sub(u.PrevMean).Scale(1 / dt)
		u.HasVelocity = true
	}
	u.PrevMean = mean
	u.HasPrevMean = true
}

// estimate summarizes user j's current sample set. Reads only: a user with
// no materialized slot is simply uninitialized, so the estimate path never
// writes the user map and is safe to run concurrently per user.
func (tr *Tracker) estimate(j int, active bool, stretch float64) Estimate {
	u := tr.users[j]
	est := Estimate{Active: active, Stretch: stretch}
	if u == nil || !u.Initialized {
		// Never updated: report the bounds center with zero confidence.
		est.Mean = tr.cfg.Bounds.Center()
		est.Best = est.Mean
		return est
	}
	est.Samples = append([]geom.Point(nil), u.Samples...)
	est.Weights = append([]float64(nil), u.Weights...)
	var x, y float64
	for i, s := range u.Samples {
		x += u.Weights[i] * s.X
		y += u.Weights[i] * s.Y
	}
	est.Mean = geom.Pt(x, y)
	est.Best = u.Samples[0] // ranked ascending by objective at update time
	return est
}

// UserSnapshot is one user's persistent SMC state — the weighted sample set
// plus the asynchronous-update bookkeeping. It is what a checkpoint carries
// per user (see TrackerState) and what MoveUserTo hands between trackers;
// the RNG substream is deliberately NOT part of it (it belongs to the
// (tracker, slot) pair, so each tile of a sharded field keeps drawing from
// its own deterministic stream regardless of migration history).
type UserSnapshot struct {
	Samples     []geom.Point
	Weights     []float64
	LastUpdate  float64
	Initialized bool
	Velocity    geom.Vec
	HasVelocity bool
	PrevMean    geom.Point
	HasPrevMean bool
}

// MoveUserTo transfers user j's state from tr to dst by handing the sample
// buffers over instead of deep-copying them, and recycles dst's previous
// buffers into the vacated source slot, which reverts to the uninitialized
// bootstrap state. Steady-state seam migration in a sharded field therefore
// allocates nothing. Both trackers keep their own RNG substreams for the
// slot: a user migrating back later resumes the source slot's stream,
// advanced by exactly the draws the slot has made.
func (tr *Tracker) MoveUserTo(dst *Tracker, j int) error {
	if j < 0 || j >= tr.cfg.NumUsers {
		return fmt.Errorf("smc: move user %d outside [0,%d)", j, tr.cfg.NumUsers)
	}
	if j >= dst.cfg.NumUsers {
		return fmt.Errorf("smc: move user %d outside destination [0,%d)", j, dst.cfg.NumUsers)
	}
	su, du := tr.users[j], dst.users[j]
	switch {
	case su != nil:
		du = dst.ensure(j)
		old := du.UserSnapshot
		du.UserSnapshot = su.UserSnapshot
		su.UserSnapshot = UserSnapshot{Samples: old.Samples[:0], Weights: old.Weights[:0]}
	case du != nil:
		// Nothing to move: the destination still ends up uninitialized.
		du.UserSnapshot = UserSnapshot{Samples: du.Samples[:0], Weights: du.Weights[:0]}
	}
	return nil
}

// WorkTotals reports the cumulative NNLS effort of the tracker's searcher —
// (solves, iterations) since construction. Both are deterministic work
// counts, identical at any worker count.
func (tr *Tracker) WorkTotals() (solves, iters uint64) {
	return tr.searcher.WorkTotals()
}
