package smc

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// stateWorld precomputes a deterministic two-user observation stream.
func stateWorld(t *testing.T, rounds int) (cfg Config, obs [][]float64) {
	t.Helper()
	m, pts := testModel(t, 11)
	cfg = Config{Model: m, SamplePoints: pts, NumUsers: 2, N: 150, M: 6, VMax: 5}
	for r := 0; r < rounds; r++ {
		ft := float64(r + 1)
		sinks := []geom.Point{geom.Pt(8+ft, 9), geom.Pt(21, 20-ft)}
		obs = append(obs, observe(t, m, pts, sinks, []float64{1.4, 2.1}))
	}
	return cfg, obs
}

// TestExportRestoreResumesByteIdentically is the tracker-level resume
// contract: running N rounds straight through equals running k rounds,
// exporting, restoring into a fresh tracker, and finishing there — estimate
// for estimate, bit for bit. Exporting must also leave the source tracker
// untouched.
func TestExportRestoreResumesByteIdentically(t *testing.T) {
	const rounds, k, seed = 6, 3, 21
	cfg, obs := stateWorld(t, rounds)

	run := func(tr *Tracker, from int) []StepResult {
		var out []StepResult
		for r := from; r < rounds; r++ {
			res, err := tr.Step(float64(r+1), obs[r])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}

	base, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := run(base, 0)

	orig, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	head := run1toK(t, orig, obs, k)
	st := orig.ExportState()
	// The export must not perturb the exporting tracker.
	origTail := run(orig, k)
	if !reflect.DeepEqual(origTail, want[k:]) {
		t.Fatal("ExportState perturbed the exporting tracker's subsequent rounds")
	}

	fresh, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Steps(); got != k {
		t.Fatalf("restored Steps() = %d, want %d", got, k)
	}
	tail := run(fresh, k)
	if !reflect.DeepEqual(append(head, tail...), want) {
		t.Fatal("restored tracker diverged from the uninterrupted run")
	}
}

func run1toK(t *testing.T, tr *Tracker, obs [][]float64, k int) []StepResult {
	t.Helper()
	var out []StepResult
	for r := 0; r < k; r++ {
		res, err := tr.Step(float64(r+1), obs[r])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestRestoreValidation pins the mismatch rejections: wrong seed, wrong
// population, malformed user lists.
func TestRestoreValidation(t *testing.T) {
	cfg, obs := stateWorld(t, 1)
	tr, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(1, obs[0]); err != nil {
		t.Fatal(err)
	}
	st := tr.ExportState()

	other, err := New(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(st); err == nil {
		t.Error("restore across seeds accepted")
	}

	small := cfg
	small.NumUsers = 1
	narrow, err := New(small, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.RestoreState(st); err == nil {
		t.Error("restore across population sizes accepted")
	}

	fresh, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	bad := st
	bad.Users = append([]UserCheckpoint(nil), st.Users...)
	if len(bad.Users) >= 2 {
		bad.Users[0], bad.Users[1] = bad.Users[1], bad.Users[0]
		if err := fresh.RestoreState(bad); err == nil {
			t.Error("out-of-order user list accepted")
		}
	}
	bad = st
	bad.Users = []UserCheckpoint{{User: 0, Snapshot: UserSnapshot{Initialized: true}, RNG: rng.State{}}}
	if err := fresh.RestoreState(bad); err == nil {
		t.Error("initialized user with no samples accepted")
	}
	bad = st
	bad.Steps = -1
	if err := fresh.RestoreState(bad); err == nil {
		t.Error("negative step count accepted")
	}
}

// TestExportAscendingAndSparse pins the export shape: users in strictly
// ascending order, and only materialized slots present.
func TestExportAscendingAndSparse(t *testing.T) {
	cfg, obs := stateWorld(t, 1)
	cfg.NumUsers = 5
	tr, err := New(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Step only users {1, 3}: slots 0, 2, 4 must stay unmaterialized.
	if _, err := tr.StepRound(Round{T: 1, Measured: obs[0], Users: []int{1, 3}}); err != nil {
		t.Fatal(err)
	}
	st := tr.ExportState()
	if len(st.Users) != 2 || st.Users[0].User != 1 || st.Users[1].User != 3 {
		t.Fatalf("export carries users %+v, want exactly slots 1 and 3", st.Users)
	}
}

// TestRestoreRejectsNonFinite: a state carrying a non-finite float or a
// negative weight anywhere a tracker restores one is refused, and the
// refused restore leaves the tracker exactly as it was.
func TestRestoreRejectsNonFinite(t *testing.T) {
	cfg, obs := stateWorld(t, 3)
	tr, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	run1toK(t, tr, obs, 2)
	run1toK(t, twin, obs, 2)
	good := tr.ExportState()
	if !good.Users[0].Snapshot.HasVelocity {
		t.Fatal("test world lost its velocity estimate")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(s *UserCheckpoint){
		"NaN weight":      func(s *UserCheckpoint) { s.Snapshot.Weights[0] = nan },
		"negative weight": func(s *UserCheckpoint) { s.Snapshot.Weights[1] = -0.5 },
		"NaN sample":      func(s *UserCheckpoint) { s.Snapshot.Samples[2].Y = nan },
		"NaN LastUpdate":  func(s *UserCheckpoint) { s.Snapshot.LastUpdate = nan },
		"+Inf velocity":   func(s *UserCheckpoint) { s.Snapshot.Velocity.DX = inf },
		"-Inf prev mean":  func(s *UserCheckpoint) { s.Snapshot.PrevMean.X = -inf },
		"NaN RNG spare":   func(s *UserCheckpoint) { s.RNG.Spare, s.RNG.HasSpare = nan, true },
	} {
		bad := tr.ExportState()
		mutate(&bad.Users[0])
		if err := tr.RestoreState(bad); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
		if !reflect.DeepEqual(tr.ExportState(), good) {
			t.Fatalf("%s: refused restore changed the tracker", name)
		}
	}
	want, err1 := twin.Step(3, obs[2])
	got, err2 := tr.Step(3, obs[2])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tracker diverged from its twin after refused restores")
	}
}

// TestRoundTimeOrder: a round whose time is not finite or not later than
// the last accepted round is refused with ErrBadRound and consumes nothing;
// after RestoreState the bound is the restored users' latest update.
func TestRoundTimeOrder(t *testing.T) {
	cfg, obs := stateWorld(t, 4)
	tr, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tracker{tr, twin} {
		if _, err := tr.Step(1, obs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Step(3, obs[1]); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.ExportState()
	for _, bad := range []float64{3, 2, -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := tr.Step(bad, obs[2]); !errors.Is(err, ErrBadRound) {
			t.Errorf("T=%v after T=3: err %v, want ErrBadRound", bad, err)
		}
	}
	if tr.Steps() != 2 {
		t.Fatalf("refused rounds advanced Steps to %d", tr.Steps())
	}
	want, err1 := twin.Step(4, obs[2])
	got, err2 := tr.Step(4, obs[2])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("refused rounds changed the next accepted round")
	}
	// Restoring the T=3 state moves the bound back to 3, not forward.
	if err := tr.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(3, obs[2]); !errors.Is(err, ErrBadRound) {
		t.Errorf("T=3 after restoring a T=3 state: err %v, want ErrBadRound", err)
	}
	again, err := tr.Step(4, obs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("restored tracker diverged on the replayed round")
	}
}
