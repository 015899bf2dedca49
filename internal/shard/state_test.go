package shard_test

import (
	"math"
	"reflect"
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

// crossingTrajectories drives users across the 2x2 seams so the resumed
// field must reproduce handoffs, not just estimates.
func crossingTrajectories(users int) []mobility.Trajectory {
	trajs := make([]mobility.Trajectory, users)
	for i := range trajs {
		fi := float64(i)
		trajs[i] = mobility.Linear{
			Start: geom.Pt(10+0.4*fi, 11-0.4*fi),
			V:     geom.Vec{DX: 1.2, DY: 1.1},
		}
	}
	return trajs
}

// fieldOutcome is everything a resumed field must reproduce.
type fieldOutcome struct {
	results  []smc.StepResult
	owners   []int
	handoffs int
	spills   int
	steps    int
}

func outcomeOf(f *shard.Field, results []smc.StepResult, users int) fieldOutcome {
	oc := fieldOutcome{results: results, handoffs: f.Handoffs(), spills: f.Spills(), steps: f.Steps()}
	for j := 0; j < users; j++ {
		oc.owners = append(oc.owners, f.Owner(j))
	}
	return oc
}

// TestFieldExportRestoreResumesByteIdentically is the sharded resume
// contract under the hardest available conditions: seam crossings and
// masked (fault-degraded) rounds, where the restored field must carry the
// owner table, the carried-forward estimate cache, and every tile tracker's
// sample sets and RNG cursors. Checkpoint lands mid-stream, right where
// handoffs are in flight.
func TestFieldExportRestoreResumesByteIdentically(t *testing.T) {
	const users, rounds, k, seed = 4, 8, 4, 27
	trajs := crossingTrajectories(users)
	w := buildWorld(t, 55, users, rounds, trajs)
	deg := degrade(t, w, fault.Config{LossProb: 0.2, DelayProb: 0.2, DelayRounds: 2}, 808)

	build := func() *shard.Field {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 2, Cols: 2, Halo: 2},
			Tracker:          w.tracker(users, smc.Config{N: 150, M: 6}),
			InitialPositions: w.truths[0],
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	step := func(f *shard.Field, from, to int) []smc.StepResult {
		var out []smc.StepResult
		for r := from; r < to; r++ {
			d := deg[r]
			res, err := f.StepMasked(float64(r+1), d.Readings, d.Present, d.Age)
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			out = append(out, res)
		}
		return out
	}

	base := build()
	want := outcomeOf(base, step(base, 0, rounds), users)

	orig := build()
	head := step(orig, 0, k)
	st := orig.ExportState()
	// Export must leave the source field untouched.
	origOut := outcomeOf(orig, append(head, step(orig, k, rounds)...), users)
	if !reflect.DeepEqual(origOut, want) {
		t.Fatal("ExportState perturbed the exporting field")
	}

	fresh := build()
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	got := outcomeOf(fresh, append(append([]smc.StepResult(nil), head...), step(fresh, k, rounds)...), users)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored field diverged from the uninterrupted run")
	}
}

// TestRejectedRoundLeavesFieldUntouched: a round carrying a non-finite
// delivered reading is rejected before any tile steps, so no tile tracker
// consumes it — not even the tiles that do not see the bad sensor. The
// exported state is unchanged, and re-stepping the same time with a valid
// observation reproduces the uninterrupted run. A non-finite reading behind
// the mask is never delivered and is accepted.
func TestRejectedRoundLeavesFieldUntouched(t *testing.T) {
	const users, rounds, seed = 4, 3, 19
	w := buildWorld(t, 71, users, rounds, nil)
	build := func() *shard.Field {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 2, Cols: 2, Halo: 2},
			Tracker:          w.tracker(users, smc.Config{N: 120, M: 6}),
			InitialPositions: w.truths[0],
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	step := func(f *shard.Field, r int) smc.StepResult {
		res, err := f.Step(float64(r+1), w.obs[r])
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		return res
	}

	ref := build()
	var want []smc.StepResult
	for r := 0; r < rounds; r++ {
		want = append(want, step(ref, r))
	}

	f := build()
	got := []smc.StepResult{step(f, 0)}
	// Poison the collection sensor of user 0's tile, with users on at least
	// one other tile, so some tiles could step cleanly around the bad one.
	home := f.Owner(0)
	elsewhere := false
	for j := 1; j < users; j++ {
		elsewhere = elsewhere || f.Owner(j) != home
	}
	if !elsewhere {
		t.Fatal("world puts every user on one tile; pick another seed")
	}
	sensor := f.Tile(home).Sink
	before := f.ExportState()
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad := append([]float64(nil), w.obs[1]...)
		bad[sensor] = v
		if _, err := f.Step(2, bad); err == nil {
			t.Fatalf("reading %v accepted", v)
		}
		if !reflect.DeepEqual(f.ExportState(), before) {
			t.Fatalf("rejected round with reading %v changed the field state", v)
		}
	}
	for r := 1; r < rounds; r++ {
		got = append(got, step(f, r))
	}
	if !reflect.DeepEqual(outcomeOf(f, got, users), outcomeOf(ref, want, users)) {
		t.Fatal("field diverged from the uninterrupted run after a rejected round")
	}

	masked := append([]float64(nil), w.obs[rounds-1]...)
	masked[sensor] = math.NaN()
	present := make([]bool, len(masked))
	for i := range present {
		present[i] = i != sensor
	}
	if _, err := f.StepMasked(float64(rounds+1), masked, present, nil); err != nil {
		t.Fatalf("NaN behind the mask rejected: %v", err)
	}
}

// TestFieldRestoreValidation pins the coordinator-level mismatch rejections.
func TestFieldRestoreValidation(t *testing.T) {
	const users = 3
	w := buildWorld(t, 61, users, 2, nil)
	build := func(grid shard.Grid, seed uint64) *shard.Field {
		f, err := shard.New(shard.Config{
			Grid:    grid,
			Tracker: w.tracker(users, smc.Config{N: 60, M: 5}),
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := build(shard.Grid{Rows: 2, Cols: 2, Halo: 2}, 7)
	if _, err := f.Step(1, w.obs[0]); err != nil {
		t.Fatal(err)
	}
	st := f.ExportState()

	if err := build(shard.Grid{Rows: 2, Cols: 2, Halo: 2}, 8).RestoreState(st); err == nil {
		t.Error("restore across seeds accepted")
	}
	if err := build(shard.Grid{Rows: 1, Cols: 2, Halo: 2}, 7).RestoreState(st); err == nil {
		t.Error("restore across grids accepted")
	}
	bad := st
	bad.Owner = append([]int(nil), st.Owner...)
	bad.Owner[0] = 99
	if err := build(shard.Grid{Rows: 2, Cols: 2, Halo: 2}, 7).RestoreState(bad); err == nil {
		t.Error("out-of-range owner accepted")
	}
	bad = st
	bad.Spills = -1
	if err := build(shard.Grid{Rows: 2, Cols: 2, Halo: 2}, 7).RestoreState(bad); err == nil {
		t.Error("negative spill counter accepted")
	}
}
