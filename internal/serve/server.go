package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sync"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

// Config configures a resident tracking server. All tenants share one
// deployed scenario and one sniffer vantage (the world is a property of the
// installation, not of a tenant); each tenant owns an independent tracker,
// queue, and stepping goroutine.
type Config struct {
	// Scenario describes the deployed sensor network; the zero value is the
	// paper's standard 900-node 30x30 setup.
	Scenario core.ScenarioConfig
	// SnifferFraction is the fraction of nodes the adversary monitors; zero
	// means 0.1 (the paper's 10% operating point).
	SnifferFraction float64
	// Seed fixes the deployment and the sniffer's node pick. Two servers
	// built from the same Config are observation-compatible: readings
	// generated against one are valid against the other.
	Seed uint64
	// MaxTenants caps concurrently resident tenants; zero means 64 and a
	// negative value is an error.
	MaxTenants int
	// DefaultQueue is the per-tenant ingestion queue depth when the tenant
	// config leaves it zero; zero means 64 and a negative value is an error.
	DefaultQueue int
	// Metrics receives the serve.* instruments plus every tenant tracker's
	// smc.*/shard.*/fit.* counters; nil builds a private registry (exposed
	// at /metrics either way).
	Metrics *obs.Metrics
	// Trace, when non-nil, receives one obs.Span per stepped tracker round
	// across all tenants.
	Trace *obs.Trace
}

// TenantConfig is the JSON body of a tenant-creation request. Zero values
// take the tracker defaults (core.TrackerConfig); a negative count, speed
// bound or queue depth is rejected, and so are more than 2^17 users or a
// queue deeper than 2^16.
type TenantConfig struct {
	Users          int     `json:"users"`
	Seed           uint64  `json:"seed"`
	Samples        int     `json:"samples"`          // per-user sample count N
	TrackM         int     `json:"track_m"`          // representatives kept M
	VMax           float64 `json:"vmax"`             // per-round speed bound
	Workers        int     `json:"workers"`          // intra-round parallelism
	Shards         string  `json:"shards"`           // "RxC" tile grid; "" = plain tracker
	Halo           float64 `json:"halo"`             // sharded tile halo width
	ActiveSetLimit int     `json:"active_set_limit"` // §5.C active-set cap
	TileCapacity   int     `json:"tile_capacity"`    // sharded per-tile admission cap
	Queue          int     `json:"queue"`            // ingestion queue depth
	// Robust arms the robust-fit defense against Byzantine sensor reports
	// for every round this tenant steps: "off" (or "") or "both"
	// (fit.ParseRobustMode); any other value is rejected. Defended tenants
	// pay a second search pass per round but tolerate tampered readings
	// (see fit.RobustConfig).
	Robust string `json:"robust"`
}

// Observation is the JSON body of an observe request: one measurement
// round. Present/Age express fault-degraded delivery (internal/fault) and
// apply independently: leaving Present null means every sensor delivered a
// report, and leaving Age null means every report is fresh. Either, when
// set, must have one entry per sensor, and no age may be negative.
type Observation struct {
	// T is the observation timestamp; zero or negative means "next round"
	// (the tenant's step count + 1).
	T        float64   `json:"t"`
	Readings []float64 `json:"readings"`
	Present  []bool    `json:"present,omitempty"`
	Age      []int     `json:"age,omitempty"`
}

// UserEstimate is one user's row in an estimate response.
type UserEstimate struct {
	User    int     `json:"user"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Active  bool    `json:"active"`
	Stretch float64 `json:"stretch"`
}

// EstimateResponse is the JSON body of an estimate reply: the tenant's most
// recent completed round.
type EstimateResponse struct {
	Tenant    string         `json:"tenant"`
	Rounds    int            `json:"rounds"`
	Time      float64        `json:"t"`
	Objective float64        `json:"objective"`
	Users     []UserEstimate `json:"users"`
	Pending   int            `json:"pending"` // observations queued, not yet stepped
	Solves    uint64         `json:"solves"`  // cumulative NNLS solves
	Iters     uint64         `json:"iters"`   // cumulative NNLS iterations
	StepError string         `json:"step_error,omitempty"`
}

var tenantIDPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// maxUsers and maxQueue bound what one creation request can make the server
// allocate up front: a sharded tenant sizes its owner and estimate tables by
// the user count, and the ingestion queue is allocated whole.
const (
	maxUsers = 1 << 17
	maxQueue = 1 << 16
)

// op is one unit of tenant-queue work: an observation round to step, or a
// control closure (checkpoint, restore) that must serialize against
// stepping. Observations are enqueued non-blocking — a full queue is the
// backpressure signal (429) — while control ops wait for space.
type op struct {
	round smc.Round
	ctrl  func()
}

// tenant is one resident tracked field: a tracker, its bounded ingestion
// queue, and the goroutine that drains it. All tracker access happens on
// that goroutine; handlers communicate through the queue and the snapshot
// mutex only.
type tenant struct {
	id      string
	tracker core.StepTracker
	queue   chan op
	stop    chan struct{} // closed by delete: worker exits
	done    chan struct{} // closed by worker on exit

	mu      sync.Mutex
	last    smc.StepResult
	rounds  int
	stepErr error
	pending int // queued observations not yet stepped
	// solves/iters cache WorkTotals as of the last completed round:
	// WorkTotals reads the searchers' scratch counters, which is only safe
	// on the stepping goroutine, so handlers read this snapshot instead.
	solves, iters uint64
}

// Server hosts many independent tenant fields over one shared vantage.
type Server struct {
	cfg     Config
	sc      *core.Scenario
	sniffer *core.Sniffer
	sensors int
	metrics *obs.Metrics
	trace   *obs.Trace
	cache   *fingerprint.Cache

	mu      sync.Mutex
	tenants map[string]*tenant

	reqs      *obs.Counter
	rejected  *obs.Counter
	stepped   *obs.Counter
	stepErrs  *obs.Counter
	ckptSaves *obs.Counter
	ckptLoads *obs.Counter
	stepMs    *obs.Histogram
	httpMs    *obs.Histogram
}

// New deploys the shared scenario and returns a serving core with no
// tenants. The caller mounts Handler on an http.Server.
func New(cfg Config) (*Server, error) {
	if cfg.SnifferFraction == 0 {
		cfg.SnifferFraction = 0.1
	}
	if cfg.MaxTenants < 0 || cfg.DefaultQueue < 0 {
		return nil, fmt.Errorf("serve: MaxTenants (%d) and DefaultQueue (%d) must not be negative",
			cfg.MaxTenants, cfg.DefaultQueue)
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 64
	}
	if cfg.DefaultQueue == 0 {
		cfg.DefaultQueue = 64
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.New(0)
	}
	src := rng.New(cfg.Seed)
	sc, err := core.NewScenario(cfg.Scenario, src)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	sniffer, err := sc.NewSniffer(cfg.SnifferFraction, src)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &Server{
		cfg:       cfg,
		sc:        sc,
		sniffer:   sniffer,
		sensors:   len(sniffer.Points()),
		metrics:   m,
		trace:     cfg.Trace,
		cache:     fingerprint.NewCache(0),
		tenants:   make(map[string]*tenant),
		reqs:      m.Counter("serve.http.requests"),
		rejected:  m.Counter("serve.observe.rejected"),
		stepped:   m.Counter("serve.rounds.stepped"),
		stepErrs:  m.Counter("serve.step.errors"),
		ckptSaves: m.Counter("serve.checkpoint.saves"),
		ckptLoads: m.Counter("serve.checkpoint.restores"),
		stepMs:    m.Histogram("serve.step.ms", obs.DurationBucketsMs),
		httpMs:    m.Histogram("serve.http.ms", obs.DurationBucketsMs),
	}, nil
}

// Scenario returns the shared deployment (test and benchmark drivers build
// observation streams against it).
func (s *Server) Scenario() *core.Scenario { return s.sc }

// Sniffer returns the shared vantage.
func (s *Server) Sniffer() *core.Sniffer { return s.sniffer }

// Sensors returns the monitored-node count — the required length of every
// observation's readings vector.
func (s *Server) Sensors() int { return s.sensors }

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Close tears down every tenant, waiting for their stepping goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, tn := range s.tenants {
		tenants = append(tenants, tn)
	}
	s.tenants = make(map[string]*tenant)
	s.mu.Unlock()
	for _, tn := range tenants {
		close(tn.stop)
		<-tn.done
	}
}

// Handler mounts the service API:
//
//	POST   /v1/tenant/{id}            create a tenant (TenantConfig JSON)
//	DELETE /v1/tenant/{id}            tear a tenant down
//	POST   /v1/tenant/{id}/observe    enqueue one round (Observation JSON);
//	                                  202 accepted, 429 + Retry-After when
//	                                  the ingestion queue is full
//	GET    /v1/tenant/{id}/estimate   latest completed round's estimates
//	POST   /v1/tenant/{id}/checkpoint serialize tenant state (binary blob)
//	POST   /v1/tenant/{id}/restore    restore a previously saved blob
//	GET    /metrics                   obs registry snapshot (JSON)
//	GET    /healthz                   liveness + tenant count
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenant/{id}", s.instrument(s.handleCreate))
	mux.HandleFunc("DELETE /v1/tenant/{id}", s.instrument(s.handleDelete))
	mux.HandleFunc("POST /v1/tenant/{id}/observe", s.instrument(s.handleObserve))
	mux.HandleFunc("GET /v1/tenant/{id}/estimate", s.instrument(s.handleEstimate))
	mux.HandleFunc("POST /v1/tenant/{id}/checkpoint", s.instrument(s.handleCheckpoint))
	mux.HandleFunc("POST /v1/tenant/{id}/restore", s.instrument(s.handleRestore))
	mux.HandleFunc("GET /metrics", s.instrument(s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	return mux
}

func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.reqs.Inc(0)
		h(w, r)
		s.httpMs.Observe(0, float64(time.Since(start).Microseconds())/1000)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *tenant {
	id := r.PathValue("id")
	s.mu.Lock()
	tn := s.tenants[id]
	s.mu.Unlock()
	if tn == nil {
		httpError(w, http.StatusNotFound, "no tenant %q", id)
	}
	return tn
}

// trackerFor builds the tracker a TenantConfig asks for. The fingerprint DB
// cache is shared across tenants: databases depend only on the (shared)
// vantage and the coarse parameters, never on tenant state.
func (s *Server) trackerFor(cfg TenantConfig) (core.StepTracker, error) {
	if cfg.Users <= 0 || cfg.Users > maxUsers {
		return nil, fmt.Errorf("users must be in [1, %d], got %d", maxUsers, cfg.Users)
	}
	if cfg.Queue > maxQueue {
		return nil, fmt.Errorf("queue must not exceed %d, got %d", maxQueue, cfg.Queue)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"samples", float64(cfg.Samples)}, {"track_m", float64(cfg.TrackM)}, {"vmax", cfg.VMax},
		{"workers", float64(cfg.Workers)}, {"active_set_limit", float64(cfg.ActiveSetLimit)},
		{"tile_capacity", float64(cfg.TileCapacity)}, {"queue", float64(cfg.Queue)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("%s must not be negative, got %v", f.name, f.v)
		}
	}
	robustMode, err := fit.ParseRobustMode(cfg.Robust)
	if err != nil {
		return nil, err
	}
	tc := core.TrackerConfig{
		N: cfg.Samples, M: cfg.TrackM, VMax: cfg.VMax,
		ActiveSetLimit: cfg.ActiveSetLimit,
		TileCapacity:   cfg.TileCapacity,
		Workers:        cfg.Workers,
		Search:         fit.Options{Robust: fit.RobustConfig{Mode: robustMode}},
		DBCache:        s.cache,
		Metrics:        s.metrics,
		Trace:          s.trace,
	}
	if cfg.Shards != "" {
		grid, err := shard.ParseGrid(cfg.Shards)
		if err != nil {
			return nil, err
		}
		grid.Halo = cfg.Halo
		tc.Shards = grid
	}
	return s.sniffer.NewStepTracker(cfg.Users, tc, cfg.Seed)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !tenantIDPattern.MatchString(id) {
		httpError(w, http.StatusBadRequest, "tenant id %q is invalid", id)
		return
	}
	var cfg TenantConfig
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "bad tenant config: %v", err)
		return
	}
	tracker, err := s.trackerFor(cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad tenant config: %v", err)
		return
	}
	depth := cfg.Queue
	if depth <= 0 {
		depth = s.cfg.DefaultQueue
	}
	tn := &tenant{
		id:      id,
		tracker: tracker,
		queue:   make(chan op, depth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	if _, dup := s.tenants[id]; dup {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "tenant %q already exists", id)
		return
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "tenant limit %d reached", s.cfg.MaxTenants)
		return
	}
	s.tenants[id] = tn
	s.mu.Unlock()
	go s.runTenant(tn)
	writeJSON(w, http.StatusCreated, map[string]any{
		"tenant": id, "users": cfg.Users, "sensors": s.sensors, "queue": depth,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	tn := s.tenants[id]
	delete(s.tenants, id)
	s.mu.Unlock()
	if tn == nil {
		httpError(w, http.StatusNotFound, "no tenant %q", id)
		return
	}
	close(tn.stop)
	<-tn.done
	w.WriteHeader(http.StatusNoContent)
}

// runTenant is the tenant's stepping goroutine: the only code path that
// touches the tracker after creation. It drains the queue in arrival order,
// so the observation stream's ordering — and therefore the tracker's
// byte-exact determinism contract — survives concurrent HTTP ingestion.
func (s *Server) runTenant(tn *tenant) {
	defer close(tn.done)
	for {
		select {
		case <-tn.stop:
			return
		case o := <-tn.queue:
			if o.ctrl != nil {
				o.ctrl()
				continue
			}
			s.stepOne(tn, o)
		}
	}
}

func (s *Server) stepOne(tn *tenant, o op) {
	if o.round.T <= 0 {
		o.round.T = float64(tn.tracker.Steps() + 1)
	}
	start := time.Now()
	res, err := tn.tracker.StepRound(o.round)
	s.stepMs.Observe(0, float64(time.Since(start).Microseconds())/1000)
	solves, iters := tn.tracker.WorkTotals()
	tn.mu.Lock()
	tn.pending--
	tn.solves, tn.iters = solves, iters
	if err != nil {
		tn.stepErr = err
	} else {
		tn.last = res
		tn.rounds = tn.tracker.Steps()
		tn.stepErr = nil
	}
	tn.mu.Unlock()
	if err != nil {
		s.stepErrs.Inc(0)
	} else {
		s.stepped.Inc(0)
	}
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	tn := s.lookup(w, r)
	if tn == nil {
		return
	}
	var o Observation
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&o); err != nil {
		httpError(w, http.StatusBadRequest, "bad observation: %v", err)
		return
	}
	round := smc.Round{T: o.T, Measured: o.Readings, Present: o.Present, Age: o.Age}
	if err := round.Check(s.sensors); err != nil {
		httpError(w, http.StatusBadRequest, "bad observation: %v", err)
		return
	}
	// Non-blocking enqueue: a full queue IS the backpressure signal. The
	// client retries after draining; nothing is silently dropped or
	// reordered.
	tn.mu.Lock()
	tn.pending++
	tn.mu.Unlock()
	select {
	case tn.queue <- op{round: round}:
		writeJSON(w, http.StatusAccepted, map[string]any{"tenant": tn.id, "queued": true})
	default:
		tn.mu.Lock()
		tn.pending--
		tn.mu.Unlock()
		s.rejected.Inc(0)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant %q ingestion queue is full", tn.id)
	}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tn := s.lookup(w, r)
	if tn == nil {
		return
	}
	tn.mu.Lock()
	res, rounds, pending, stepErr := tn.last, tn.rounds, tn.pending, tn.stepErr
	solves, iters := tn.solves, tn.iters
	tn.mu.Unlock()
	resp := EstimateResponse{
		Tenant: tn.id, Rounds: rounds, Time: res.Time,
		Objective: res.Objective, Pending: pending,
		Solves: solves, Iters: iters,
	}
	if stepErr != nil {
		resp.StepError = stepErr.Error()
	}
	for j, est := range res.Estimates {
		resp.Users = append(resp.Users, UserEstimate{
			User: j, X: est.Mean.X, Y: est.Mean.Y,
			Active: est.Active, Stretch: est.Stretch,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ctrl runs fn on the tenant's stepping goroutine and waits for it,
// serializing against in-flight rounds. Unlike observations, control ops
// block for queue space — saving a checkpoint under load waits rather than
// failing. Returns false if the tenant shut down first.
func (tn *tenant) ctrl(fn func()) bool {
	ran := make(chan struct{})
	wrapped := op{ctrl: func() { fn(); close(ran) }}
	select {
	case tn.queue <- wrapped:
	case <-tn.done:
		return false
	}
	select {
	case <-ran:
		return true
	case <-tn.done:
		return false
	}
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	tn := s.lookup(w, r)
	if tn == nil {
		return
	}
	var blob []byte
	var err error
	ok := tn.ctrl(func() {
		var c Checkpoint
		if c, err = Capture(tn.tracker); err == nil {
			blob, err = Encode(c)
		}
	})
	if !ok {
		httpError(w, http.StatusGone, "tenant %q shut down", tn.id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	s.ckptSaves.Inc(0)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Fluxtrack-Checkpoint-Version", fmt.Sprint(Version))
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	tn := s.lookup(w, r)
	if tn == nil {
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// Decode outside the stepping goroutine: malformed blobs are rejected
	// without ever pausing ingestion.
	c, err := Decode(blob)
	if err != nil {
		httpError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	var restoreErr error
	ok := tn.ctrl(func() {
		restoreErr = c.RestoreInto(tn.tracker)
		if restoreErr == nil {
			// The restored state is the tenant's new present: reset the
			// round snapshot so stale estimates don't outlive the restore.
			tn.mu.Lock()
			tn.last = smc.StepResult{}
			tn.rounds = tn.tracker.Steps()
			tn.stepErr = nil
			tn.mu.Unlock()
		}
	})
	if !ok {
		httpError(w, http.StatusGone, "tenant %q shut down", tn.id)
		return
	}
	if restoreErr != nil {
		httpError(w, http.StatusConflict, "restore: %v", restoreErr)
		return
	}
	s.ckptLoads.Inc(0)
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tn.id, "rounds": tn.tracker.Steps()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.metrics.Snapshot().WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": n, "sensors": s.sensors})
}
