package smc

import (
	"errors"
	"reflect"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// subsetWorld builds a 3-user tracker pair plus a model-exact observation
// stream for the subset/snapshot tests.
func subsetWorld(t *testing.T, cfg Config) (*Tracker, *Tracker, [][]float64) {
	t.Helper()
	m, pts := testModel(t, 8)
	cfg.Model, cfg.SamplePoints, cfg.NumUsers = m, pts, 3
	a, err := New(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	sinks := [][]geom.Point{
		{geom.Pt(6, 6), geom.Pt(24, 8), geom.Pt(10, 25)},
		{geom.Pt(7, 7), geom.Pt(23, 9), geom.Pt(11, 24)},
		{geom.Pt(8, 8), geom.Pt(22, 10), geom.Pt(12, 23)},
		{geom.Pt(9, 9), geom.Pt(21, 11), geom.Pt(13, 22)},
	}
	var stream [][]float64
	for _, s := range sinks {
		stream = append(stream, observe(t, m, pts, s, []float64{2, 1.5, 1.8}))
	}
	return a, b, stream
}

// userOf returns user j's snapshot as ExportState carries it (the zero
// snapshot for a slot the tracker never materialized).
func userOf(tr *Tracker, j int) UserSnapshot {
	for _, uc := range tr.ExportState().Users {
		if uc.User == j {
			return uc.Snapshot
		}
	}
	return UserSnapshot{}
}

// TestSubsetRoundFullIsStep: a subset naming every user must take the
// full-round path, byte for byte — with and without the active-set cap.
func TestSubsetRoundFullIsStep(t *testing.T) {
	for _, cfg := range []Config{
		{N: 100, M: 5},
		{N: 100, M: 5, ActiveSetLimit: 1},
	} {
		a, b, stream := subsetWorld(t, cfg)
		for r, o := range stream {
			tm := float64(r + 1)
			want, err1 := a.Step(tm, o)
			got, err2 := b.StepRound(Round{T: tm, Measured: o, Users: []int{0, 1, 2}})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d: full subset diverged from Step (limit %d)", r, cfg.ActiveSetLimit)
			}
		}
	}
}

// TestSubsetRoundReusedBufferIsStep: a subset step over every user that
// reuses the caller's estimate buffer across rounds still runs the
// full-round semantics (active-set selection included) and aligns estimates
// identically with Step — the reused contents must be rewritten.
func TestSubsetRoundReusedBufferIsStep(t *testing.T) {
	for _, cfg := range []Config{
		{N: 100, M: 5},
		{N: 100, M: 5, ActiveSetLimit: 1},
	} {
		a, b, stream := subsetWorld(t, cfg)
		var buf []Estimate
		for r, o := range stream {
			tm := float64(r + 1)
			want, err1 := a.Step(tm, o)
			got, err2 := b.StepRound(Round{T: tm, Measured: o, Users: []int{0, 1, 2}, Dst: buf})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(want.Estimates, got.Estimates) ||
				want.Objective != got.Objective {
				t.Fatalf("round %d: full subset with reused buffer diverged from Step (limit %d)",
					r, cfg.ActiveSetLimit)
			}
			buf = got.Estimates
		}
	}
}

// TestSubsetRoundPartial: only the listed users are searched/updated and
// reported, aligned with the subset; the rest keep their state, exactly
// like an active-set round treats unselected users.
func TestSubsetRoundPartial(t *testing.T) {
	a, _, stream := subsetWorld(t, Config{N: 100, M: 5})
	if _, err := a.Step(1, stream[0]); err != nil {
		t.Fatal(err)
	}
	before2 := userOf(a, 2)
	res, err := a.StepRound(Round{T: 2, Measured: stream[1], Users: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 2 {
		t.Fatalf("%d estimates for a 2-user subset", len(res.Estimates))
	}
	if !reflect.DeepEqual(before2, userOf(a, 2)) {
		t.Fatal("unlisted user's state changed")
	}
	// Subset contract violations.
	for _, bad := range [][]int{{}, {1, 0}, {0, 0}, {-1}, {0, 7}} {
		_, err := a.StepRound(Round{T: 3, Measured: stream[2], Users: bad})
		if !errors.Is(err, ErrBadRound) {
			t.Errorf("subset %v: err %v, want ErrBadRound", bad, err)
		}
	}
	if a.Steps() != 2 {
		t.Fatalf("rejected subsets advanced Steps to %d", a.Steps())
	}
}

// TestActiveSetWithinExplicitSubset: an explicit subset larger than
// ActiveSetLimit runs the selection restricted to the subset — users outside
// the subset are never searched, and at most ActiveSetLimit inside it are.
func TestActiveSetWithinExplicitSubset(t *testing.T) {
	a, _, stream := subsetWorld(t, Config{N: 100, M: 5, ActiveSetLimit: 2})
	subset := []int{0, 1, 2}
	res, err := a.StepRound(Round{T: 1, Measured: stream[0], Users: subset})
	if err != nil {
		t.Fatal(err)
	}
	searched := 0
	for j := range res.Estimates {
		if userOf(a, j).Initialized {
			searched++
		}
	}
	if searched == 0 || searched > 2 {
		t.Fatalf("%d users searched, want 1..2 (ActiveSetLimit)", searched)
	}
}

// TestMoveUserToMatchesSnapshotPath: the pooled migration must leave both
// trackers in exactly the state a checkpoint edit produces — the user's
// snapshot restored into the destination over the destination's own slot
// stream, and the source slot cleared to bootstrap over its stream — and
// the subsequent rounds must be byte-identical.
func TestMoveUserToMatchesSnapshotPath(t *testing.T) {
	mkPair := func() (*Tracker, *Tracker, [][]float64) {
		return subsetWorld(t, Config{N: 100, M: 5})
	}
	a1, b1, stream := mkPair()
	a2, b2, _ := mkPair()
	for r, o := range stream[:2] {
		tm := float64(r + 1)
		if _, err := a1.Step(tm, o); err != nil {
			t.Fatal(err)
		}
		if _, err := a2.Step(tm, o); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot path on pair 1, through the checkpoint surface.
	src := a1.ExportState()
	moved := src.Users[1]
	src.Users[1].Snapshot = UserSnapshot{}
	if err := a1.RestoreState(src); err != nil {
		t.Fatal(err)
	}
	dst := b1.ExportState()
	dst.Users = []UserCheckpoint{{User: 1, Snapshot: moved.Snapshot,
		RNG: rng.New(userStreamSeed(42, 1)).State()}}
	if err := b1.RestoreState(dst); err != nil {
		t.Fatal(err)
	}
	// Pooled path on pair 2.
	if err := a2.MoveUserTo(b2, 1); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if !reflect.DeepEqual(userOf(a1, j), userOf(a2, j)) {
			t.Fatalf("source user %d diverged after move", j)
		}
		if !reflect.DeepEqual(userOf(b1, j), userOf(b2, j)) {
			t.Fatalf("destination user %d diverged after move", j)
		}
	}
	// The moved trackers must keep producing identical rounds.
	r1, err1 := b1.StepRound(Round{T: 3, Measured: stream[2], Users: []int{1}})
	r2, err2 := b2.StepRound(Round{T: 3, Measured: stream[2], Users: []int{1}})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("post-move rounds diverged")
	}
	// Moving a never-touched user clears the destination slot.
	fresh, _, _ := mkPair()
	if err := fresh.MoveUserTo(b1, 1); err != nil {
		t.Fatal(err)
	}
	if cleared := userOf(b1, 1); cleared.Initialized || len(cleared.Samples) != 0 {
		t.Fatalf("move of untouched user left state behind: %+v", cleared)
	}
	// Validation.
	if err := a1.MoveUserTo(b1, 9); err == nil {
		t.Error("out-of-range move accepted")
	}
}

// TestSnapshotRoundTrip: export → restore carries every user's full state
// between trackers deep-copied both ways, so the two trackers then predict
// from identical sample sets and neither aliases the other's buffers.
func TestSnapshotRoundTrip(t *testing.T) {
	a, b, stream := subsetWorld(t, Config{N: 100, M: 5})
	for r, o := range stream[:2] {
		if _, err := a.Step(float64(r+1), o); err != nil {
			t.Fatal(err)
		}
	}
	st := a.ExportState()
	snap := st.Users[1].Snapshot
	if !snap.Initialized || len(snap.Samples) == 0 {
		t.Fatalf("tracked user exported as %+v", snap)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.ExportState(), st) {
		t.Fatal("restore/export round trip changed the state")
	}
	// Deep copy: mutating the exported state must not touch either tracker.
	snap.Samples[0] = geom.Pt(-99, -99)
	if userOf(a, 1).Samples[0] == snap.Samples[0] {
		t.Fatal("ExportState aliased the tracker's samples")
	}
	if userOf(b, 1).Samples[0] == snap.Samples[0] {
		t.Fatal("RestoreState aliased the state's samples")
	}
	ra, err1 := a.Step(3, stream[2])
	rb, err2 := b.Step(3, stream[2])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("restored twin diverged on the next round")
	}
}

// TestBoundsRestrictsTracker: a tracker bounded to a sub-rectangle draws
// its bootstrap candidates inside the bounds and reports the bounds center
// while uninitialized.
func TestBoundsRestrictsTracker(t *testing.T) {
	m, pts := testModel(t, 9)
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(15, 15))
	tr, err := New(Config{Model: m, SamplePoints: pts, NumUsers: 1, N: 200, M: 5,
		Bounds: bounds}, 4)
	if err != nil {
		t.Fatal(err)
	}
	est := tr.estimate(0, false, 0)
	if est.Mean != bounds.Center() {
		t.Fatalf("uninitialized estimate %v, want bounds center %v", est.Mean, bounds.Center())
	}
	o := observe(t, m, pts, []geom.Point{geom.Pt(7, 7)}, []float64{2})
	res, err := tr.Step(1, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Estimates[0].Samples {
		if !bounds.Contains(s) {
			t.Fatalf("kept sample %v outside bounds %v", s, bounds)
		}
	}
}
