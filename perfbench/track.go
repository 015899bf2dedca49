package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/exp"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

// sizes scales every workload. fullSize is the benchmark; the tests run a
// tiny one.
type sizes struct {
	trackN, trackRounds, trackOps  int
	fieldUsers, fieldN, fieldSites int
	fieldRounds, fieldOpsPerSite   int // per site
	serveN                         int
	serveInterval                  time.Duration // plain tenant's round interval
	serveCkptEvery                 int           // rounds between checkpoints
	serveSessions                  int           // fresh servers per run, each replaying the schedule
	suiteIDs                       []string      // nil runs the whole registry
	suiteSamples, suiteTrackN      int           // 0 keeps exp.QuickConfig
	replayRounds                   int
	setupReps                      int // minimum timed set-ups per run
}

func fullSize() sizes {
	return sizes{
		trackN: 1000, trackRounds: 100, trackOps: 10,
		fieldUsers: 100, fieldN: 200, fieldSites: 12, fieldRounds: 5, fieldOpsPerSite: 1,
		serveN: 500, serveInterval: 75 * time.Millisecond, serveCkptEvery: 8, serveSessions: 18,
		replayRounds: 6, setupReps: 25,
	}
}

const (
	sensors   = 90 // sniffed nodes, 10% of the paper's 900
	vmax      = 5  // tracker speed bound per round
	liarFrac  = 0.1
	trackerM  = 10
	hotFrac   = 0.9
	fieldGrid = 8
)

// field-hotspot shape. 40% of the nodes are sniffed (the paper's densest
// vantage), so every tile of the 8×8 grid covers sensors. The hot corner
// spans 2×2 tiles, and the active set is capped at 8 users per tile: with
// 16, or with every hot user in one tile, NNLS iterations per composition
// swing with the users' placement so much that one site's cost varied 4×
// between seeds.
const (
	fieldSensors   = 360
	fieldActiveSet = 8
	hotCorner      = 0.24
)

// stream is one precomputed observation sequence: round r is observed at
// t = r+1.
type stream struct {
	obs   [][]float64
	truth [][]geom.Point // true user positions per round
	start []geom.Point   // positions at t = 0
}

// newWorld deploys the scenario and sniffer a seed names. The same seed
// rebuilds the same world, so streams generated once stay valid for every
// tracker built later.
func newWorld(seed uint64, sensors int) (*core.Scenario, *core.Sniffer, *rng.Source, error) {
	src := rng.New(seed)
	sc, err := core.NewScenario(core.ScenarioConfig{}, src)
	if err != nil {
		return nil, nil, nil, err
	}
	sn, err := sc.NewSnifferCount(sensors, src)
	if err != nil {
		return nil, nil, nil, err
	}
	return sc, sn, src, nil
}

// walkStream moves user i on a random walk inside areas[i] at up to
// speeds[i] per round and records the sniffer's noiseless readings.
func walkStream(field geom.Rect, sn *core.Sniffer, areas []geom.Rect, speeds []float64, rounds int, src *rng.Source) (stream, error) {
	users := len(areas)
	walks := make([]*mobility.RandomWalk, users)
	stretches := make([]float64, users)
	st := stream{start: make([]geom.Point, users)}
	for i := range walks {
		w, err := mobility.NewRandomWalk(areas[i], src.InRect(areas[i]), speeds[i], rounds+1, src)
		if err != nil {
			return stream{}, err
		}
		walks[i] = w
		stretches[i] = src.Uniform(1, 3)
		st.start[i] = field.Clamp(w.At(0))
	}
	us := make([]traffic.User, users)
	for r := 0; r < rounds; r++ {
		truth := make([]geom.Point, users)
		for i, w := range walks {
			truth[i] = field.Clamp(w.At(float64(r + 1)))
			us[i] = traffic.User{Pos: truth[i], Stretch: stretches[i], Active: true}
		}
		o, err := sn.Observe(us, 0, src)
		if err != nil {
			return stream{}, err
		}
		st.obs = append(st.obs, o)
		st.truth = append(st.truth, truth)
	}
	return st, nil
}

// tamper makes liarFrac of the sniffed sensors Byzantine for the whole
// stream (exp.LiarMix: inflaters, deflaters and replayers).
func (st *stream) tamper(sn *core.Sniffer, seed uint64) error {
	adv, err := sn.NewAdversary(exp.LiarMix(liarFrac), seed)
	if err != nil {
		return err
	}
	for r, o := range st.obs {
		if st.obs[r], err = adv.Apply(o); err != nil {
			return err
		}
	}
	return nil
}

// site is one world a closed-loop workload steps: a deployment and sniffer
// rebuilt from its seed, the stream generated on it, and the tracker to
// build over it.
type site struct {
	seed    uint64
	sensors int
	points  []geom.Point
	stream  stream
	build   func(sn *core.Sniffer, met *obs.Metrics, tr *obs.Trace) (core.StepTracker, error)
}

// trackSpec is a closed-loop workload: trackers step precomputed streams as
// fast as they can, one site after another.
type trackSpec struct {
	field      geom.Rect
	users      int
	sites      []site
	opsPerSite int // rounds of each site's stream that are timed
	replay     replaySpec
	suite      bool // a traced run also runs the experiment registry
}

// siteTrace is what a traced pass recorded at one site.
type siteTrace struct {
	tracker core.StepTracker
	spans   []obs.Span
	stepMs  []float64
}

// passResult is one fresh tracker per site stepping the site's stream.
type passResult struct {
	setupS   []float64 // per site
	stepMs   []float64 // every site's rounds, in order
	digest   uint64
	errMean  float64
	traces   []siteTrace // traced passes only
	ops      []roundOp   // reference passes only
	trackers []core.StepTracker
}

// roundOp is one timed operation of a closed-loop workload: one site's
// round, stepped again from the tracker state the reference pass had before
// it. Replaying sampled rounds, rather than whole passes, lets every op be
// timed many times spread over the run, so its fastest time is the cost of
// the work and not of the machine's slow spells.
type roundOp struct {
	restore func() error
	step    func() (smc.StepResult, error)
	digest  uint64 // the reference pass's result for this round
	what    string
}

// pass builds each site's world and tracker (the timed set-up), steps every
// round (each Step timed), and checks every estimate. With met non-nil the
// trackers report into it and each site records its spans. With sample set,
// it is the reference pass: it checkpoints each site's tracker before
// every sampled round and keeps the trackers, so the rounds can be replayed.
func (ts *trackSpec) pass(l *ledger, met *obs.Metrics, sample bool) (passResult, error) {
	var res passResult
	h := fnv.New64a()
	for si, st := range ts.sites {
		var tr *obs.Trace
		if met != nil {
			tr = obs.NewTrace(len(st.stream.obs)*(fieldGrid*fieldGrid*2+1) + 64)
		}
		tracker, sn, setupS, err := st.setUp(met, tr)
		if err != nil {
			return passResult{}, err
		}
		res.setupS = append(res.setupS, setupS)
		l.check(samePoints(sn.Points(), st.points), "rebuilt world differs from the stream's world")

		rounds := len(st.stream.obs)
		sampled := make(map[int]bool)
		for i := 0; sample && i < ts.opsPerSite; i++ {
			sampled[rounds-1-i*(rounds/ts.opsPerSite)] = true
		}
		means := make([][]geom.Point, 0, rounds)
		stepMs := make([]float64, 0, rounds)
		for r, o := range st.stream.obs {
			var restore func() error
			if sampled[r] {
				if restore, err = checkpoint(tracker); err != nil {
					return passResult{}, err
				}
			}
			s := time.Now()
			out, err := tracker.Step(float64(r+1), o)
			stepMs = append(stepMs, float64(time.Since(s).Nanoseconds())/1e6)
			if !l.op(err) {
				continue
			}
			means = append(means, estimateMeans(out))
			hashStep(h, out)
			checkEstimates(l, ts.field, out.Estimates, r)
			if restore != nil {
				res.ops = append(res.ops, roundOp{
					restore: restore,
					step:    func() (smc.StepResult, error) { return tracker.Step(float64(r+1), o) },
					digest:  stepDigest(out),
					what:    fmt.Sprintf("site %d round %d", si, r),
				})
			}
		}
		if sample {
			res.trackers = append(res.trackers, tracker)
		}
		res.stepMs = append(res.stepMs, stepMs...)
		res.errMean += secondHalfError(means, st.stream.truth) / float64(len(ts.sites))
		if tr != nil {
			res.traces = append(res.traces, siteTrace{tracker, tr.Snapshot(), stepMs})
		}
	}
	res.digest = h.Sum64()
	return res, nil
}

// checkpoint snapshots a tracker's complete state and returns the function
// that puts it back.
func checkpoint(t core.StepTracker) (func() error, error) {
	switch tt := t.(type) {
	case *smc.Tracker:
		st := tt.ExportState()
		return func() error { return tt.RestoreState(st) }, nil
	case *shard.Field:
		st := tt.ExportState()
		return func() error { return tt.RestoreState(st) }, nil
	}
	return nil, fmt.Errorf("tracker %T has no checkpoint", t)
}

func stepDigest(res smc.StepResult) uint64 {
	h := fnv.New64a()
	hashStep(h, res)
	return h.Sum64()
}

// replayOps times every op once, in order, each stepped from its restored
// state, and checks each result against the reference pass's.
func replayOps(l *ledger, ops []roundOp) ([]float64, error) {
	ms := make([]float64, len(ops))
	for i, op := range ops {
		if err := op.restore(); err != nil {
			return nil, err
		}
		s := time.Now()
		out, err := op.step()
		ms[i] = float64(time.Since(s).Nanoseconds()) / 1e6
		if !l.op(err) {
			continue
		}
		got := stepDigest(out)
		l.check(got == op.digest, "%s replayed to digest %016x, reference %016x", op.what, got, op.digest)
	}
	return ms, nil
}

// closedLoop runs a trackSpec. A reference pass steps every site's stream on
// fresh trackers, checkpointing the sampled rounds; then, for the rest of
// the budget, every sampled round is replayed
// from its checkpoint, round after round, loop after loop. Each replay does
// the reference pass's work exactly (its digest proves it), so a round's
// cost is its fastest replay. Untraced it reports the end-to-end metrics;
// traced it replays for half the time, then steps one traced pass (whose
// work counts repeat exactly) and replays the layers.
func closedLoop(cfg runConfig, l *ledger, ts *trackSpec) error {
	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
	}
	start := time.Now()
	ref, err := ts.pass(l, nil, true)
	if err != nil {
		return err
	}
	setups := ref.setupS
	var byLoop [][]float64
	loopStart, lastProbe := time.Now(), time.Now()
	for loop := 0; loop < 2 || time.Since(start)+time.Since(loopStart)/time.Duration(loop) <= budget; loop++ {
		ms, err := replayOps(l, ref.ops)
		if err != nil {
			return err
		}
		byLoop = append(byLoop, ms)
		if time.Since(lastProbe) > time.Second/2 {
			l.probe()
			lastProbe = time.Now()
		}
		// One set-up per loop, so set-ups sample the whole run too.
		_, _, s, err := ts.sites[loop%len(ts.sites)].setUp(nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	for i := 0; len(setups) < cfg.size.setupReps; i++ {
		_, _, s, err := ts.sites[i%len(ts.sites)].setUp(nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	// Live heap with every site's tracker resident, checkpoints dropped.
	ref.ops = nil
	heapMB := liveHeapMB()
	runtime.KeepAlive(ref.trackers)
	steps := fastestOfPasses(byLoop)
	if !cfg.traced {
		l.set("setup_s", stats.Median(setups))
		setLatency(l, steps)
		l.set("heap_live_mb", heapMB)
		return nil
	}

	met := obs.New(0)
	traced, err := ts.pass(l, met, false)
	if err != nil {
		return err
	}
	checkDigest(l, "traced pass", traced.digest, ref.digest)
	l.set("bench.trace_overhead_frac", stats.Median(traced.stepMs)/stats.Median(ref.stepMs)-1)
	l.set("track.err_mean", traced.errMean)
	l.set("track.users_per_s", float64(ts.users)*1e3/stats.Mean(steps))
	setCounterLedger(l, counters(met))
	var spans []obs.Span
	for _, st := range traced.traces {
		spans = append(spans, st.spans...)
	}
	setTrackerSpans(l, spans)
	if _, sharded := traced.traces[0].tracker.(*shard.Field); sharded {
		setShardLedger(l, traced.traces)
	}
	if err := replayLayers(l, ts.replay, cfg.size.replayRounds); err != nil {
		return err
	}
	if ts.suite {
		return suiteLedger(cfg, l)
	}
	return nil
}

// setUp rebuilds the site's world and builds its tracker, and returns how
// long that took: the workload's set-up.
func (st *site) setUp(met *obs.Metrics, tr *obs.Trace) (core.StepTracker, *core.Sniffer, float64, error) {
	t0 := time.Now()
	_, sn, _, err := newWorld(st.seed, st.sensors)
	if err != nil {
		return nil, nil, 0, err
	}
	tracker, err := st.build(sn, met, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	return tracker, sn, time.Since(t0).Seconds(), nil
}

// fastestOfPasses is each op's fastest time across passes that repeat the
// same ops in the same order.
func fastestOfPasses(byPass [][]float64) []float64 {
	out := append([]float64(nil), byPass[0]...)
	for _, pass := range byPass[1:] {
		for i, v := range pass {
			out[i] = math.Min(out[i], v)
		}
	}
	return out
}

func runTrackExact(cfg runConfig, l *ledger) error {
	ts, err := trackExactSpec(cfg)
	if err != nil {
		return err
	}
	return closedLoop(cfg, l, ts)
}

func runFieldHotspot(cfg runConfig, l *ledger) error {
	ts, err := fieldHotspotSpec(cfg)
	if err != nil {
		return err
	}
	return closedLoop(cfg, l, ts)
}

// trackExactSpec is the paper's Algorithm 4.1 at its default N: one
// unsharded tracker, three random-walk users, exact search, one worker,
// clean stream.
func trackExactSpec(cfg runConfig) (*trackSpec, error) {
	const users = 3
	sc, sn, src, err := newWorld(cfg.seed, sensors)
	if err != nil {
		return nil, err
	}
	field := sc.Field()
	areas, speeds := make([]geom.Rect, users), make([]float64, users)
	for i := range areas {
		areas[i], speeds[i] = field, 4
	}
	st, err := walkStream(field, sn, areas, speeds, cfg.size.trackRounds, src)
	if err != nil {
		return nil, err
	}
	trackerSeed := src.Uint64()
	n := cfg.size.trackN
	return &trackSpec{
		field: field, users: users, opsPerSite: cfg.size.trackOps, suite: true,
		sites: []site{{
			seed: cfg.seed, sensors: sensors, points: sn.Points(), stream: st,
			build: func(sn *core.Sniffer, met *obs.Metrics, tr *obs.Trace) (core.StepTracker, error) {
				return sn.NewTracker(users, core.TrackerConfig{
					N: n, M: trackerM, VMax: vmax, Workers: 1, Metrics: met, Trace: tr,
				}, trackerSeed)
			},
		}},
		replay: replaySpec{
			model: sc.Model(), points: sn.Points(), field: field, dbBounds: field,
			stream: st, users: []int{0, 1, 2}, n: n, k: users, seed: cfg.seed,
		},
	}, nil
}

// fieldHotspotSpec is the scale regime: an 8×8 sharded field with 90% of
// the users packed into one corner, coarse prestage, active-set cap, 10%
// Byzantine sensors and the robust defense, two workers. How much a round
// costs here depends strongly on where the users happen to stand, so a run
// steps fieldSites independent sites, each with its own deployment, users
// and liars, and reports their pooled rounds.
func fieldHotspotSpec(cfg runConfig) (*trackSpec, error) {
	users := cfg.size.fieldUsers
	hotUsers := int(hotFrac * float64(users))
	n := cfg.size.fieldN
	grid := shard.Grid{Rows: fieldGrid, Cols: fieldGrid, Halo: 2}
	seeds := rng.New(cfg.seed)
	ts := &trackSpec{users: users, opsPerSite: cfg.size.fieldOpsPerSite}
	for i := 0; i < cfg.size.fieldSites; i++ {
		seed := seeds.Uint64()
		sc, sn, src, err := newWorld(seed, fieldSensors)
		if err != nil {
			return nil, err
		}
		field := sc.Field()
		w := field.Width()
		hot := geom.NewRect(geom.Pt(0.01*w, 0.01*w), geom.Pt(hotCorner*w, hotCorner*w))
		areas, speeds := make([]geom.Rect, users), make([]float64, users)
		for j := range areas {
			areas[j], speeds[j] = field, 3
			if j < hotUsers {
				areas[j], speeds[j] = hot, 2
			}
		}
		st, err := walkStream(field, sn, areas, speeds, cfg.size.fieldRounds, src)
		if err != nil {
			return nil, err
		}
		if err := st.tamper(sn, src.Uint64()); err != nil {
			return nil, err
		}
		trackerSeed := src.Uint64()
		ts.field = field
		ts.sites = append(ts.sites, site{
			seed: seed, sensors: fieldSensors, points: sn.Points(), stream: st,
			build: func(sn *core.Sniffer, met *obs.Metrics, tr *obs.Trace) (core.StepTracker, error) {
				return sn.NewShardedTracker(users, core.TrackerConfig{
					N: n, M: trackerM, VMax: vmax, Workers: 1,
					ActiveSetLimit: fieldActiveSet,
					Coarse:         fingerprint.CoarseConfig{Enabled: true, TopK: 64, GridRes: 24},
					DBCache:        fingerprint.NewCache(0),
					Search:         fit.Options{Robust: fit.RobustConfig{Mode: fit.RobustBoth}},
					Shards:         grid, InitialPositions: st.start,
					Metrics: met, Trace: tr,
				}, trackerSeed)
			},
		})
		if i == 0 {
			ts.replay = replaySpec{
				model: sc.Model(), points: sn.Points(), field: field,
				dbBounds: geom.NewRect(field.Min, geom.Pt(w/fieldGrid, field.Height()/fieldGrid)),
				stream:   st, users: []int{0, 1, 2}, n: n, k: hotUsers / 4, seed: cfg.seed,
			}
		}
	}
	return ts, nil
}

// checkDigest is one check that a pass's estimate digest equals the first
// untraced pass's: reruns and tracing must not change a single estimate.
func checkDigest(l *ledger, what string, got, want uint64) {
	l.check(got == want, "%s estimate digest %016x != first pass digest %016x", what, got, want)
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func estimateMeans(res smc.StepResult) []geom.Point {
	out := make([]geom.Point, len(res.Estimates))
	for j, e := range res.Estimates {
		out[j] = e.Mean
	}
	return out
}

// hashStep folds one round's estimates into the run's estimate digest.
func hashStep(h io.Writer, res smc.StepResult) {
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(res.Time)
	put(res.Objective)
	for _, e := range res.Estimates {
		put(e.Mean.X)
		put(e.Mean.Y)
		put(e.Stretch)
		if e.Active {
			put(1)
		} else {
			put(0)
		}
	}
}

// checkEstimates is one check per round: every estimate finite and inside
// the field.
func checkEstimates(l *ledger, field geom.Rect, ests []smc.Estimate, round int) {
	for j, e := range ests {
		if !finiteIn(field, e.Mean) {
			l.check(false, "round %d user %d estimate %v outside the field", round, j, e.Mean)
			return
		}
	}
	l.check(true, "")
}

func finiteIn(field geom.Rect, p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0) && field.Contains(p)
}

// secondHalfError is the mean distance from estimate to ground truth over
// the second half of the rounds, pairing estimates with true positions
// greedily by proximity (tracker identities are exchangeable).
func secondHalfError(means [][]geom.Point, truth [][]geom.Point) float64 {
	var sum float64
	var n int
	for r := len(means) / 2; r < len(means) && r < len(truth); r++ {
		for _, d := range matchErrors(means[r], truth[r]) {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func matchErrors(estimates, truths []geom.Point) []float64 {
	used := make([]bool, len(truths))
	out := make([]float64, 0, len(estimates))
	for _, est := range estimates {
		best, bestD := -1, 0.0
		for j, tr := range truths {
			if d := est.Dist(tr); !used[j] && (best < 0 || d < bestD) {
				best, bestD = j, d
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, bestD)
	}
	return out
}

// setLatency reports the end-to-end latency distribution of the run's ops.
func setLatency(l *ledger, ms []float64) {
	l.set("latency_p50_ms", stats.Percentile(ms, 50))
	l.set("latency_p90_ms", stats.Percentile(ms, 90))
	l.set("latency_mean_ms", stats.Mean(ms))
	if len(ms) < 100 {
		fmt.Fprintf(os.Stderr, "note: %d timed ops, fewer than the 100 a p90 with ten samples beyond it needs\n", len(ms))
	}
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters flattens a registry's counters by name.
func counters(met *obs.Metrics) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range met.Snapshot().Counters {
		out[c.Name] = float64(c.Value)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setCounterLedger maps the obs work counters onto the ledger's layers.
func setCounterLedger(l *ledger, c map[string]float64) {
	cands := c["smc.step.candidates"]
	l.set("fluxmodel.columns", c["fit.search.columns"])
	l.set("fit.compositions", c["fit.nnls.solves"])
	l.set("fit.coarse.shortlist_frac", ratio(c["fit.coarse.shortlist"], cands))
	l.set("fit.coarse.avoided_frac", ratio(c["fit.coarse.exact_avoided"], cands))
	l.set("fit.coarse.knn_probes", c["fit.coarse.knn_probes"])
	l.set("fit.robust.passes", c["fit.robust.passes"])
	l.set("fit.robust.flagged", c["fit.robust.flagged"])
	l.set("mat.iters_per_solve", ratio(c["fit.nnls.iters"], c["fit.nnls.solves"]))
	l.set("fingerprint.builds", c["fingerprint.db.builds"])
	l.set("fingerprint.cache_hit_frac", ratio(c["fingerprint.cache.hits"], c["fingerprint.cache.hits"]+c["fingerprint.cache.misses"]))
	l.set("smc.searched_users", c["smc.step.searched_users"])
	l.set("smc.candidates", cands)
}

// setTrackerSpans reports the SMC phase medians from the tracker spans
// (Tile -1; tile-scoped coordinator spans are the shard layer's).
func setTrackerSpans(l *ledger, spans []obs.Span) {
	var predict, search, update []float64
	for _, s := range spans {
		if s.Tile >= 0 {
			continue
		}
		predict = append(predict, float64(s.PredictNs)/1e6)
		search = append(search, float64(s.SearchNs)/1e6)
		update = append(update, float64(s.UpdateNs)/1e6)
	}
	l.set("smc.predict_ms_p50", stats.Percentile(predict, 50))
	l.set("fit.search_ms_p50", stats.Percentile(search, 50))
	l.set("smc.update_ms_p50", stats.Percentile(update, 50))
}

// setShardLedger splits each Field.Step into tile work and coordinator
// work: a tile span covers [QueueNs, QueueNs+WallNs] from the round's
// dispatch, and whatever of the step the union of those intervals leaves
// uncovered is routing, scheduling, merge and handoff.
func setShardLedger(l *ledger, sites []siteTrace) {
	type interval struct{ lo, hi int64 }
	var coord, hotTile, queue []float64
	var handoffs, spills, maxUsers int
	for _, st := range sites {
		byStep := make(map[int][]interval)
		for _, s := range st.spans {
			if s.Tile < 0 {
				continue
			}
			byStep[s.Step] = append(byStep[s.Step], interval{s.QueueNs, s.QueueNs + s.WallNs})
			queue = append(queue, float64(s.QueueNs)/1e6)
		}
		for step, ms := range st.stepMs {
			ivs := byStep[step]
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
			var covered, end, longest int64
			for _, iv := range ivs {
				longest = max(longest, iv.hi-iv.lo)
				lo := max(iv.lo, end)
				if iv.hi > lo {
					covered += iv.hi - lo
				}
				end = max(end, iv.hi)
			}
			coord = append(coord, ms-float64(covered)/1e6)
			hotTile = append(hotTile, float64(longest)/1e6)
		}
		f := st.tracker.(*shard.Field)
		m, _ := f.Imbalance()
		maxUsers = max(maxUsers, m)
		handoffs += f.Handoffs()
		spills += f.Spills()
	}
	l.set("shard.coord_ms_p50", stats.Percentile(coord, 50))
	l.set("shard.hot_tile_ms_p50", stats.Percentile(hotTile, 50))
	l.set("shard.tile_queue_ms_p90", stats.Percentile(queue, 90))
	l.set("shard.handoffs", float64(handoffs))
	l.set("shard.imbalance_max", float64(maxUsers))
	l.set("shard.spills", float64(spills))
}
