package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/serve"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/stats"
)

const servePoll = 2 * time.Millisecond // estimate polling period

// tenantSpec is one served tenant and the stream it is sent.
type tenantSpec struct {
	id     string
	cfg    serve.TenantConfig
	stream stream
	bodies [][]byte // the stream's observe bodies, encoded before timing
	// interval is the tenant's round period: about three times its step,
	// so a machine running half as fast still keeps up.
	interval time.Duration
}

// session is one in-process fluxserve instance on loopback with its
// tenants created.
type session struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client // one per tenant, one connection each
}

func startSession(scfg serve.Config, tenants []tenantSpec) (*session, error) {
	srv, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &session{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for _, tn := range tenants {
		client := &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		s.clients = append(s.clients, client)
		body, err := json.Marshal(tn.cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		if _, err := post(client, s.base+"/v1/tenant/"+tn.id, body, http.StatusCreated); err != nil {
			s.close()
			return nil, fmt.Errorf("create tenant %s: %w", tn.id, err)
		}
	}
	return s, nil
}

// close stops the HTTP server, waits for it, and tears the tenants down.
func (s *session) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// post sends one request and returns the body when the status is want.
func post(client *http.Client, url string, body []byte, want int) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return msg, &statusError{resp.StatusCode, string(msg)}
	}
	return msg, nil
}

type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// tenantRun is what one tenant's driver saw. Failures are collected here
// and moved to the ledger after the drivers join.
type tenantRun struct {
	latMs     []float64 // per round: scheduled send to first estimate including it
	observeMs []float64 // per round
	lagMs     []float64 // per round: how late the generator sent it
	estMs     []float64
	ckptMs    []float64
	blobs     [][]byte
	final     serve.EstimateResponse
	attempted int
	failures  []string
}

func (tr *tenantRun) fail(format string, args ...any) {
	tr.failures = append(tr.failures, fmt.Sprintf(format, args...))
}

// driveTenant is the open-loop generator of one tenant: round r is due at
// start + r·interval and is sent then however far the tenant has got. Between
// sends the same driver polls the estimate, and after every ckptEvery rounds
// it saves a checkpoint.
func driveTenant(s *session, ti int, tn tenantSpec, ckptEvery int, start time.Time, field geom.Rect) *tenantRun {
	client := s.clients[ti]
	rounds, interval := len(tn.bodies), tn.interval
	url := s.base + "/v1/tenant/" + tn.id
	run := &tenantRun{
		latMs:     make([]float64, rounds),
		observeMs: make([]float64, rounds),
		lagMs:     make([]float64, rounds),
	}
	due := func(r int) time.Time { return start.Add(time.Duration(r) * interval) }
	sent, resolved := 0, 0
	poll := func() bool {
		t0 := time.Now()
		est, err := getEstimate(client, url+"/estimate")
		at := time.Now()
		run.estMs = append(run.estMs, float64(at.Sub(t0).Nanoseconds())/1e6)
		run.attempted++
		if err != nil {
			run.fail("tenant %s estimate: %v", tn.id, err)
			return false
		}
		if est.StepError != "" {
			run.fail("tenant %s step error: %s", tn.id, est.StepError)
			return false
		}
		for _, u := range est.Users {
			if !finiteIn(field, geom.Pt(u.X, u.Y)) {
				run.fail("tenant %s round %d user %d estimate (%v, %v) outside the field", tn.id, est.Rounds, u.User, u.X, u.Y)
				return false
			}
		}
		for ; resolved < est.Rounds && resolved < sent; resolved++ {
			run.latMs[resolved] = float64(at.Sub(due(resolved)).Nanoseconds()) / 1e6
		}
		run.final = est
		return true
	}
	for r := 0; r < rounds; r++ {
		for resolved < sent && time.Until(due(r)) > 0 {
			if !poll() {
				return run
			}
			if wait := min(servePoll, time.Until(due(r))); wait > 0 {
				time.Sleep(wait)
			}
		}
		if wait := time.Until(due(r)); wait > 0 {
			time.Sleep(wait)
		}
		run.lagMs[r] = float64(time.Since(due(r)).Nanoseconds()) / 1e6
		t0 := time.Now()
		for {
			run.attempted++
			_, err := post(client, url+"/observe", tn.bodies[r], http.StatusAccepted)
			var se *statusError
			if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
				run.fail("tenant %s round %d rejected with 429", tn.id, r)
				time.Sleep(servePoll)
				continue
			}
			if err != nil {
				run.fail("tenant %s observe round %d: %v", tn.id, r, err)
				return run
			}
			break
		}
		run.observeMs[r] = float64(time.Since(t0).Nanoseconds()) / 1e6
		sent++
		if (r+1)%ckptEvery == 0 {
			t0 := time.Now()
			run.attempted++
			blob, err := post(client, url+"/checkpoint", nil, http.StatusOK)
			if err != nil {
				run.fail("tenant %s checkpoint after round %d: %v", tn.id, r, err)
				return run
			}
			run.ckptMs = append(run.ckptMs, float64(time.Since(t0).Nanoseconds())/1e6)
			run.blobs = append(run.blobs, blob)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for resolved < sent && time.Now().Before(deadline) {
		if !poll() {
			return run
		}
		time.Sleep(servePoll)
	}
	run.attempted++
	if resolved < sent {
		run.fail("tenant %s stuck at %d of %d rounds", tn.id, resolved, sent)
	}
	return run
}

func getEstimate(client *http.Client, url string) (serve.EstimateResponse, error) {
	resp, err := client.Get(url)
	if err != nil {
		return serve.EstimateResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return serve.EstimateResponse{}, &statusError{resp.StatusCode, string(msg)}
	}
	var est serve.EstimateResponse
	err = json.NewDecoder(resp.Body).Decode(&est)
	return est, err
}

// sessionResult is one session's measurements.
type sessionResult struct {
	runs   []*tenantRun
	setups []float64
	heapMB float64
	srv    *serve.Server
}

// runSession sets up the server and tenants setupReps times (timed; all but
// the last are torn down again), drives every tenant's stream concurrently,
// and closes the server.
func runSession(scfg serve.Config, tenants []tenantSpec, sz sizes, setupReps int, field geom.Rect) (sessionResult, error) {
	var res sessionResult
	var s *session
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = startSession(scfg, tenants); err != nil {
			return sessionResult{}, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.close()
		}
	}
	defer s.close()
	res.srv = s.srv
	res.runs = make([]*tenantRun, len(tenants))
	// Tenants' schedules are staggered evenly across the interval, as
	// independent feeds would be, rather than all due at the same instant.
	start := time.Now().Add(sz.serveInterval)
	var wg sync.WaitGroup
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn tenantSpec) {
			defer wg.Done()
			offset := time.Duration(i) * sz.serveInterval / time.Duration(len(tenants))
			res.runs[i] = driveTenant(s, i, tn, sz.serveCkptEvery, start.Add(offset), field)
		}(i, tn)
	}
	wg.Wait()
	res.heapMB = liveHeapMB()
	return res, nil
}

// directRun steps an in-process tracker with the tenant's configuration over
// the same stream: the reference the served estimates must equal.
type directRun struct {
	last  smc.StepResult
	means [][]geom.Point
	err   error
}

func stepDirect(sn *core.Sniffer, tn tenantSpec) directRun {
	mode, err := fit.ParseRobustMode(tn.cfg.Robust)
	if err != nil {
		return directRun{err: err}
	}
	tracker, err := sn.NewStepTracker(tn.cfg.Users, core.TrackerConfig{
		N: tn.cfg.Samples, M: tn.cfg.TrackM, VMax: tn.cfg.VMax, Workers: tn.cfg.Workers,
		Search: fit.Options{Robust: fit.RobustConfig{Mode: mode}},
	}, tn.cfg.Seed)
	if err != nil {
		return directRun{err: err}
	}
	var dr directRun
	for r, o := range tn.stream.obs {
		if dr.last, dr.err = tracker.Step(float64(r+1), o); dr.err != nil {
			return dr
		}
		dr.means = append(dr.means, estimateMeans(dr.last))
	}
	return dr
}

// verifyRuns moves the drivers' failures to the ledger and checks that
// every checkpoint round-trips through serve.Decode and serve.Encode byte
// for byte.
func verifyRuns(l *ledger, res sessionResult) {
	for _, run := range res.runs {
		l.attempted += run.attempted - len(run.failures)
		for _, f := range run.failures {
			l.check(false, "%s", f)
		}
		for i, blob := range run.blobs {
			c, err := serve.Decode(blob)
			if !l.op(err) {
				continue
			}
			again, err := serve.Encode(c)
			l.check(err == nil && bytes.Equal(again, blob), "checkpoint %d does not re-encode byte for byte", i)
		}
	}
}

// runDirect steps one direct tracker per tenant, concurrently, and checks
// that every tenant's final served estimates equal its direct tracker's
// (serve ≡ direct).
func runDirect(l *ledger, res sessionResult, tenants []tenantSpec) []directRun {
	direct := make([]directRun, len(tenants))
	var wg sync.WaitGroup
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn tenantSpec) {
			defer wg.Done()
			direct[i] = stepDirect(res.srv.Sniffer(), tn)
		}(i, tn)
	}
	wg.Wait()
	for i, tn := range tenants {
		l.op(direct[i].err)
		l.check(sameEstimates(res.runs[i].final, direct[i].last, len(tn.bodies)),
			"tenant %s: served estimates differ from the direct tracker's", tn.id)
	}
	return direct
}

func sameEstimates(served serve.EstimateResponse, direct smc.StepResult, rounds int) bool {
	if served.Rounds != rounds || len(served.Users) != len(direct.Estimates) {
		return false
	}
	for j, u := range served.Users {
		e := direct.Estimates[j]
		if u.X != e.Mean.X || u.Y != e.Mean.Y || u.Active != e.Active || u.Stretch != e.Stretch {
			return false
		}
	}
	return true
}

// runServeStream is the resident service under an open loop: two tenants of
// three users each, one plain and one defended against the 10% Byzantine
// sensors in its stream, each sent one round per interval.
func runServeStream(cfg runConfig, l *ledger) error {
	scfg := serve.Config{Seed: cfg.seed, SnifferFraction: float64(sensors) / 900, MaxTenants: 2}
	gen, err := serve.New(scfg)
	if err != nil {
		return err
	}
	gen.Close()
	field := gen.Scenario().Field()
	// The run is split into sessions that each replay the same schedule on a
	// fresh server; traced, the last session runs with metrics and spans on.
	sessions := cfg.size.serveSessions
	src := rng.New(cfg.seed ^ 0x5e7e)
	var tenants []tenantSpec
	for i, robust := range []string{"off", "both"} {
		// The defended tenant's step runs about twice as long.
		interval := cfg.size.serveInterval * time.Duration(i+1)
		rounds := max(int(cfg.seconds/time.Duration(sessions)/interval), 2)
		areas, speeds := []geom.Rect{field, field, field}, []float64{3, 3, 3}
		st, err := walkStream(field, gen.Sniffer(), areas, speeds, rounds, src)
		if err != nil {
			return err
		}
		if robust != "off" {
			if err := st.tamper(gen.Sniffer(), src.Uint64()); err != nil {
				return err
			}
		}
		tn := tenantSpec{
			id: "t" + robust,
			cfg: serve.TenantConfig{
				Users: 3, Seed: cfg.seed*2 + uint64(i) + 1, Samples: cfg.size.serveN,
				TrackM: trackerM, VMax: vmax, Workers: 1, Robust: robust,
			},
			stream:   st,
			interval: interval,
		}
		for r, o := range st.obs {
			body, err := json.Marshal(serve.Observation{T: float64(r + 1), Readings: o})
			if err != nil {
				return err
			}
			tn.bodies = append(tn.bodies, body)
		}
		tenants = append(tenants, tn)
	}

	res, err := runSession(scfg, tenants, cfg.size, cfg.size.setupReps, field)
	if err != nil {
		return err
	}
	l.probe()
	verifyRuns(l, res)
	direct := runDirect(l, res, tenants)

	latency := func(r *tenantRun) []float64 { return r.latMs }
	lagMs := func(r *tenantRun) []float64 { return r.lagMs }
	byPass := [][]float64{allRounds(res.runs, latency)}
	lag := allRounds(res.runs, lagMs)
	setups := res.setups
	var met *obs.Metrics
	var tr *obs.Trace
	last := res
	for s := 1; s < sessions; s++ {
		scfgS := scfg
		if cfg.traced && s == sessions-1 {
			met, tr = obs.New(0), obs.NewTrace(4*len(tenants[0].bodies)*len(tenants))
			scfgS.Metrics, scfgS.Trace = met, tr
		}
		if last, err = runSession(scfgS, tenants, cfg.size, 1, field); err != nil {
			return err
		}
		l.probe()
		verifyRuns(l, last)
		for i := range tenants {
			l.check(sameEstimates(last.runs[i].final, direct[i].last, len(tenants[i].bodies)),
				"tenant %s: session %d's estimates differ from the direct tracker's", tenants[i].id, s)
		}
		lag = append(lag, allRounds(last.runs, lagMs)...)
		setups = append(setups, last.setups...)
		if met == nil {
			byPass = append(byPass, allRounds(last.runs, latency))
		}
	}
	// A generator that fell behind its schedule did not apply the load the
	// workload names: the run is invalid, not slow.
	lagP90 := stats.Percentile(lag, 90)
	l.check(lagP90 < float64(cfg.size.serveInterval.Milliseconds()), "load generator fell behind: lag p90 %.1f ms", lagP90)
	if !cfg.traced {
		l.set("setup_s", stats.Median(setups))
		setLatency(l, fastestOfPasses(byPass))
		l.set("heap_live_mb", last.heapMB)
		return nil
	}

	l.set("bench.trace_overhead_frac", stats.Median(allRounds(last.runs, latency))/stats.Median(byPass[len(byPass)-1])-1)
	l.set("bench.loadgen_lag_p90_ms", lagP90)
	setServeLedger(l, last, tenants, met, tr.Snapshot())
	var errSum float64
	for i, tn := range tenants {
		errSum += secondHalfError(direct[i].means, tn.stream.truth)
	}
	l.set("track.err_mean", errSum/float64(len(tenants)))

	plain := tenants[0]
	return replayLayers(l, replaySpec{
		model: gen.Scenario().Model(), points: gen.Sniffer().Points(), field: field, dbBounds: field,
		stream: plain.stream, users: []int{0, 1, 2}, n: cfg.size.serveN, k: 3, seed: cfg.seed,
	}, cfg.size.replayRounds)
}

func allRounds(runs []*tenantRun, pick func(*tenantRun) []float64) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, pick(r)...)
	}
	return out
}

// setServeLedger reports the serve layer from the client's timers and the
// tracker spans. A round's wait is its observe-to-estimate time less its
// step: request decode, queueing, and the estimate poll. The observe
// request is not subtracted as well, because the step starts as soon as the
// handler enqueues the round, before the observe response reaches the
// client.
func setServeLedger(l *ledger, res sessionResult, tenants []tenantSpec, met *obs.Metrics, spans []obs.Span) {
	stepNs := make(map[[2]uint64]int64)
	var steps []float64
	for _, s := range spans {
		if s.Tile >= 0 {
			continue
		}
		stepNs[[2]uint64{s.Seed, uint64(s.Step)}] = s.WallNs
		steps = append(steps, float64(s.WallNs)/1e6)
	}
	var wait, observe, est, ckpt []float64
	for i, run := range res.runs {
		for r, lat := range run.latMs {
			step := float64(stepNs[[2]uint64{tenants[i].cfg.Seed, uint64(r)}]) / 1e6
			wait = append(wait, lat-step)
		}
		observe = append(observe, run.observeMs...)
		est = append(est, run.estMs...)
		ckpt = append(ckpt, run.ckptMs...)
	}
	var lastBlob float64
	if blobs := res.runs[0].blobs; len(blobs) > 0 {
		lastBlob = float64(len(blobs[len(blobs)-1]))
	}
	c := counters(met)
	setCounterLedger(l, c)
	setTrackerSpans(l, spans)
	l.set("serve.observe_ms_p50", stats.Percentile(observe, 50))
	l.set("serve.estimate_ms_p50", stats.Percentile(est, 50))
	l.set("serve.step_ms_p50", stats.Percentile(steps, 50))
	l.set("serve.wait_ms_p50", stats.Percentile(wait, 50))
	l.set("serve.checkpoint_ms_p50", stats.Percentile(ckpt, 50))
	l.set("serve.checkpoint_bytes", lastBlob)
	l.set("serve.rejected", c["serve.observe.rejected"])
}
