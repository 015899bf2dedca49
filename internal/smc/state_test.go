package smc

import (
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
	if _, err := tr.StepUsers(1, obs[0], nil, nil, []int{1, 3}, nil); err != nil {
		t.Fatal(err)
	}
	st := tr.ExportState()
	if len(st.Users) != 2 || st.Users[0].User != 1 || st.Users[1].User != 3 {
		t.Fatalf("export carries users %+v, want exactly slots 1 and 3", st.Users)
	}
}
