package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"fluxtrack/internal/core"
)

// startServer builds a serving core over a modest world plus an httptest
// front end. Every server built here shares Config (seed 77), so blobs and
// observation streams are portable across instances — exactly the
// crash-restart / migration situation the service exists for.
func startServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Scenario:        core.ScenarioConfig{Nodes: 400},
		SnifferFraction: 0.1,
		Seed:            77,
		DefaultQueue:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func createTenant(t *testing.T, base, id string, cfg TenantConfig) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/tenant/"+id, cfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
	}
}

// observeAll streams the given rounds into a tenant, retrying on 429 — the
// client half of the backpressure protocol.
func observeAll(t *testing.T, base, id string, obs []Observation) {
	t.Helper()
	for i, o := range obs {
		for {
			resp, body := doJSON(t, http.MethodPost, base+"/v1/tenant/"+id+"/observe", o)
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("observe %s round %d: %d %s", id, i, resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// waitRounds polls until the tenant has stepped through `rounds` rounds
// with an empty queue, returning the final estimate.
func waitRounds(t *testing.T, base, id string, rounds int) EstimateResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := doJSON(t, http.MethodGet, base+"/v1/tenant/"+id+"/estimate", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %s: %d %s", id, resp.StatusCode, body)
		}
		var est EstimateResponse
		if err := json.Unmarshal(body, &est); err != nil {
			t.Fatal(err)
		}
		if est.StepError != "" {
			t.Fatalf("tenant %s step error: %s", id, est.StepError)
		}
		if est.Rounds >= rounds && est.Pending == 0 {
			return est
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s stuck at %d/%d rounds (%d pending)", id, est.Rounds, rounds, est.Pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cleanObservations converts the world's clean stream into request bodies.
func cleanObservations(w *testWorldT) []Observation {
	out := make([]Observation, len(w.clean))
	for r, readings := range w.clean {
		out[r] = Observation{T: float64(r + 1), Readings: readings}
	}
	return out
}

func maskedObservations(w *testWorldT) []Observation {
	out := make([]Observation, len(w.deg))
	for r, d := range w.deg {
		out[r] = Observation{T: float64(r + 1), Readings: d.Readings, Present: d.Present, Age: d.Age}
	}
	return out
}

var (
	serveWorldOnce sync.Once
	serveWorldVal  *testWorldT
	serveWorldErr  error
)

// serveWorld builds the observation streams against a server's own vantage.
// Every server in this file shares Config (seed 77), so one stream set
// serves them all and is generated once.
func serveWorld(t *testing.T, s *Server) *testWorldT {
	t.Helper()
	serveWorldOnce.Do(func() {
		serveWorldVal, serveWorldErr = buildTestWorldFor(s.Scenario(), s.Sniffer())
	})
	if serveWorldErr != nil {
		t.Fatal(serveWorldErr)
	}
	return serveWorldVal
}

// TestServeTwoTenantsIsolated is the e2e acceptance test: two tenants with
// different tracker shapes stream concurrently over HTTP, and each produces
// exactly the estimates it produces when running alone — per-tenant
// isolation down to the float bits. Run under -race in CI.
func TestServeTwoTenantsIsolated(t *testing.T) {
	cfgA := TenantConfig{Users: testUsers, Seed: 5, Samples: 120, TrackM: 5, VMax: 5}
	cfgB := TenantConfig{Users: testUsers, Seed: 9, Samples: 100, TrackM: 5, VMax: 5, Shards: "2x2", Halo: 2}

	// Solo baselines, each on its own server instance.
	soloSrv, soloHS := startServer(t)
	w := serveWorld(t, soloSrv)
	createTenant(t, soloHS.URL, "alpha", cfgA)
	createTenant(t, soloHS.URL, "beta", cfgB)
	observeAll(t, soloHS.URL, "alpha", cleanObservations(w))
	soloA := waitRounds(t, soloHS.URL, "alpha", testRounds)
	observeAll(t, soloHS.URL, "beta", maskedObservations(w))
	soloB := waitRounds(t, soloHS.URL, "beta", testRounds)
	if len(soloA.Users) != testUsers || len(soloB.Users) != testUsers {
		t.Fatalf("solo runs returned %d/%d user estimates", len(soloA.Users), len(soloB.Users))
	}

	// The same two tenants, driven concurrently against one server.
	_, hs := startServer(t)
	createTenant(t, hs.URL, "alpha", cfgA)
	createTenant(t, hs.URL, "beta", cfgB)
	done := make(chan struct{})
	go func() {
		defer close(done)
		observeAll(t, hs.URL, "beta", maskedObservations(w))
	}()
	observeAll(t, hs.URL, "alpha", cleanObservations(w))
	<-done
	concA := waitRounds(t, hs.URL, "alpha", testRounds)
	concB := waitRounds(t, hs.URL, "beta", testRounds)

	if !reflect.DeepEqual(concA.Users, soloA.Users) {
		t.Error("tenant alpha's estimates changed when beta shared the server")
	}
	if !reflect.DeepEqual(concB.Users, soloB.Users) {
		t.Error("tenant beta's estimates changed when alpha shared the server")
	}
	if concA.Solves != soloA.Solves || concA.Iters != soloA.Iters {
		t.Error("tenant alpha's work counters changed when beta shared the server")
	}
}

// TestServeBackpressureDeterministic pins the 429 contract without timing
// luck: a control op parks the stepping goroutine, so exactly Queue
// observations are accepted and the Queue+1-th is rejected with
// Retry-After.
func TestServeBackpressureDeterministic(t *testing.T) {
	const queueDepth = 3
	srv, hs := startServer(t)
	w := serveWorld(t, srv)
	createTenant(t, hs.URL, "bp", TenantConfig{
		Users: testUsers, Seed: 5, Samples: 60, TrackM: 5, Queue: queueDepth,
	})

	srv.mu.Lock()
	tn := srv.tenants["bp"]
	srv.mu.Unlock()
	if tn == nil {
		t.Fatal("tenant not registered")
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	tn.queue <- op{ctrl: func() { close(entered); <-gate }}
	<-entered // stepping goroutine is parked; queue is empty

	o := Observation{T: 0, Readings: w.clean[0]} // T 0: each queued copy is the next round
	for i := 0; i < queueDepth; i++ {
		resp, body := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/bp/observe", o)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d with free queue space: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, _ := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/bp/observe", o)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("observe into full queue: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	close(gate) // unpark; the queued rounds drain
	est := waitRounds(t, hs.URL, "bp", queueDepth)
	if est.Rounds != queueDepth {
		t.Fatalf("drained %d rounds, want %d", est.Rounds, queueDepth)
	}
	// After draining, ingestion accepts again.
	resp, body := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/bp/observe",
		Observation{T: 4, Readings: w.clean[3]})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe after drain: %d %s", resp.StatusCode, body)
	}
	waitRounds(t, hs.URL, "bp", queueDepth+1)
}

// TestServeCheckpointMigration moves a mid-track tenant across server
// processes through the HTTP checkpoint/restore pair and pins that the
// migrated tenant finishes with byte-identical estimates to an unmigrated
// control on the exact same stream.
func TestServeCheckpointMigration(t *testing.T) {
	const k = 4
	cfg := TenantConfig{Users: testUsers, Seed: 5, Samples: 120, TrackM: 5, VMax: 5, Shards: "2x2", Halo: 2}
	srvA, hsA := startServer(t)
	w := serveWorld(t, srvA)
	obs := maskedObservations(w)

	// Control: the full stream on one server.
	createTenant(t, hsA.URL, "control", cfg)
	observeAll(t, hsA.URL, "control", obs)
	want := waitRounds(t, hsA.URL, "control", testRounds)

	// Migrant: k rounds on server A, checkpoint over HTTP, restore into a
	// fresh tenant on server B, finish there.
	createTenant(t, hsA.URL, "migrant", cfg)
	observeAll(t, hsA.URL, "migrant", obs[:k])
	waitRounds(t, hsA.URL, "migrant", k)
	resp, blob := doJSON(t, http.MethodPost, hsA.URL+"/v1/tenant/migrant/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, blob)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("checkpoint content type %q", ct)
	}

	_, hsB := startServer(t)
	createTenant(t, hsB.URL, "migrant", cfg)
	req, err := http.NewRequest(http.MethodPost, hsB.URL+"/v1/tenant/migrant/restore", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	restoreResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(restoreResp.Body)
	restoreResp.Body.Close()
	if restoreResp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d %s", restoreResp.StatusCode, body)
	}
	observeAll(t, hsB.URL, "migrant", obs[k:])
	got := waitRounds(t, hsB.URL, "migrant", testRounds)

	if !reflect.DeepEqual(got.Users, want.Users) {
		t.Error("migrated tenant's estimates diverged from the unmigrated control")
	}
	if got.Rounds != want.Rounds || got.Time != want.Time || got.Objective != want.Objective {
		t.Errorf("migrated round state (%d, %v, %v) != control (%d, %v, %v)",
			got.Rounds, got.Time, got.Objective, want.Rounds, want.Time, want.Objective)
	}
}

// TestServeAPIErrors pins the API's failure surface.
func TestServeAPIErrors(t *testing.T) {
	srv, hs := startServer(t)
	w := serveWorld(t, srv)
	cfg := TenantConfig{Users: testUsers, Seed: 5, Samples: 60, TrackM: 5}
	createTenant(t, hs.URL, "a", cfg)

	check := func(name string, got *http.Response, want int) {
		t.Helper()
		if got.StatusCode != want {
			t.Errorf("%s: status %d, want %d", name, got.StatusCode, want)
		}
	}
	resp, _ := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/a", cfg)
	check("duplicate create", resp, http.StatusConflict)
	resp, _ = doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/bad id!", cfg)
	check("invalid id", resp, http.StatusBadRequest)
	resp, _ = doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/b", TenantConfig{Users: 0})
	check("zero users", resp, http.StatusBadRequest)
	// Both are allocated at creation: past the caps a request is refused
	// rather than left to exhaust the server's memory.
	resp, _ = doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/b", TenantConfig{Users: maxUsers + 1, Shards: "1x1"})
	check("users over the cap", resp, http.StatusBadRequest)
	resp, _ = doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/b", TenantConfig{Users: 1, Queue: maxQueue + 1})
	check("queue over the cap", resp, http.StatusBadRequest)
	// 4294967296x4294967296 overflows int and 30000x30000 outnumbers the
	// sensors: both are rejected before any tile state is allocated.
	for _, shards := range []string{"2by2", "2x2x9", "4294967296x4294967296", "30000x30000"} {
		resp, _ = doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/b", TenantConfig{Users: 1, Shards: shards})
		check("bad shards "+shards, resp, http.StatusBadRequest)
	}
	// A negative setting is an error, not the default.
	for _, neg := range []struct {
		field string
		cfg   TenantConfig
	}{
		{"samples", TenantConfig{Users: 1, Samples: -5}},
		{"track_m", TenantConfig{Users: 1, TrackM: -1}},
		{"vmax", TenantConfig{Users: 1, VMax: -3}},
		{"workers", TenantConfig{Users: 1, Workers: -2}},
		{"active_set_limit", TenantConfig{Users: 1, ActiveSetLimit: -1}},
		{"tile_capacity", TenantConfig{Users: 1, Shards: "2x2", TileCapacity: -4}},
		{"queue", TenantConfig{Users: 1, Queue: -8}},
	} {
		resp, body := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/b", neg.cfg)
		check("negative "+neg.field, resp, http.StatusBadRequest)
		if !bytes.Contains(body, []byte("bad tenant config: "+neg.field)) {
			t.Errorf("negative %s rejection does not name the field: %s", neg.field, body)
		}
	}
	// Only off and both are defense modes.
	for _, robust := range []string{"loso", "huber"} {
		resp, body := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/b", TenantConfig{Users: 1, Robust: robust})
		check("removed robust mode "+robust, resp, http.StatusBadRequest)
		if !bytes.Contains(body, []byte("want off or both")) {
			t.Errorf("robust %q rejection does not name the valid modes: %s", robust, body)
		}
	}
	resp, _ = doJSON(t, http.MethodGet, hs.URL+"/v1/tenant/nope/estimate", nil)
	check("unknown tenant", resp, http.StatusNotFound)
	for _, bad := range []struct {
		name string
		o    Observation
	}{
		{"wrong readings length", Observation{T: 1, Readings: []float64{1, 2, 3}}},
		{"wrong present length", Observation{T: 1, Readings: w.clean[0], Present: []bool{true}}},
		{"wrong age length without present", Observation{T: 1, Readings: w.clean[0], Age: []int{0}}},
		{"negative age", Observation{T: 1, Readings: w.clean[0], Age: append(make([]int, srv.Sensors()-1), -1)}},
	} {
		resp, _ = doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/a/observe", bad.o)
		check(bad.name, resp, http.StatusBadRequest)
	}

	// Corrupt blob → 400 before the stepping goroutine is ever involved.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/tenant/a/restore", bytes.NewReader([]byte("garbage")))
	rr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	check("corrupt restore", rr, http.StatusBadRequest)

	// A valid blob from a mismatched tenant shape → 409.
	createTenant(t, hs.URL, "sharded", TenantConfig{Users: testUsers, Seed: 5, Samples: 60, TrackM: 5, Shards: "2x2"})
	observeAll(t, hs.URL, "a", []Observation{{T: 1, Readings: w.clean[0]}})
	waitRounds(t, hs.URL, "a", 1)
	resp, blob := doJSON(t, http.MethodPost, hs.URL+"/v1/tenant/a/checkpoint", nil)
	check("checkpoint", resp, http.StatusOK)
	req, _ = http.NewRequest(http.MethodPost, hs.URL+"/v1/tenant/sharded/restore", bytes.NewReader(blob))
	rr, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	check("shape-mismatched restore", rr, http.StatusConflict)

	// Delete then 404.
	resp, _ = doJSON(t, http.MethodDelete, hs.URL+"/v1/tenant/a", nil)
	check("delete", resp, http.StatusNoContent)
	resp, _ = doJSON(t, http.MethodGet, hs.URL+"/v1/tenant/a/estimate", nil)
	check("estimate after delete", resp, http.StatusNotFound)

	// Liveness + metrics endpoints stay up throughout.
	resp, body := doJSON(t, http.MethodGet, hs.URL+"/healthz", nil)
	check("healthz", resp, http.StatusOK)
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil || hz["ok"] != true {
		t.Errorf("healthz body %s", body)
	}
	resp, body = doJSON(t, http.MethodGet, hs.URL+"/metrics", nil)
	check("metrics", resp, http.StatusOK)
	if !bytes.Contains(body, []byte("serve.rounds.stepped")) {
		t.Errorf("metrics snapshot missing serve counters: %s", body)
	}
}

// TestServeObserveAutoTimestamp: T <= 0 means "next round".
func TestServeObserveAutoTimestamp(t *testing.T) {
	srv, hs := startServer(t)
	w := serveWorld(t, srv)
	createTenant(t, hs.URL, "auto", TenantConfig{Users: testUsers, Seed: 5, Samples: 60, TrackM: 5})
	for r := 0; r < 2; r++ {
		observeAll(t, hs.URL, "auto", []Observation{{Readings: w.clean[r]}})
	}
	est := waitRounds(t, hs.URL, "auto", 2)
	if est.Time != 2 {
		t.Fatalf("auto timestamp produced t=%v after 2 rounds, want 2", est.Time)
	}
}

// TestServeObserveAgeWithoutPresent: an age vector applies on its own, so a
// stale round without a present mask steps exactly like the same round with
// an all-true mask.
func TestServeObserveAgeWithoutPresent(t *testing.T) {
	srv, hs := startServer(t)
	w := serveWorld(t, srv)
	cfg := TenantConfig{Users: testUsers, Seed: 5, Samples: 60, TrackM: 5}
	age := make([]int, srv.Sensors())
	all := make([]bool, srv.Sensors())
	for i := range age {
		age[i] = i % 3
		all[i] = true
	}
	ests := make([]EstimateResponse, 2)
	for i, present := range [][]bool{nil, all} {
		id := []string{"bare", "masked"}[i]
		createTenant(t, hs.URL, id, cfg)
		observeAll(t, hs.URL, id, []Observation{
			{T: 1, Readings: w.clean[0]},
			{T: 2, Readings: w.clean[1], Present: present, Age: age},
		})
		ests[i] = waitRounds(t, hs.URL, id, 2)
		ests[i].Tenant = ""
	}
	if !reflect.DeepEqual(ests[0], ests[1]) {
		t.Fatalf("stale round without present diverged from the all-present round:\n%+v\n%+v", ests[0], ests[1])
	}
}

// TestNewRejectsNegativeLimits: a negative tenant cap or queue depth is an
// error, not the default.
func TestNewRejectsNegativeLimits(t *testing.T) {
	for _, cfg := range []Config{{MaxTenants: -1}, {DefaultQueue: -1}} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted a negative limit", cfg)
		}
	}
}
