package shard_test

import (
	"testing"

	"fluxtrack/internal/obs"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

// nnlsWork is the NNLS work one run did: the fit.nnls.* counter totals, and
// rows, each solve weighted by the sensors in its fit (from the tile
// trackers' trace spans).
type nnlsWork struct{ solves, iters, rows uint64 }

// stepWork tracks the world's whole observation stream through a fresh
// field at workers 1 and 2 and returns its NNLS work, failing unless both
// worker counts did the identical work.
func stepWork(t *testing.T, w *world, users int, grid shard.Grid, tc smc.Config) nnlsWork {
	t.Helper()
	var ref nnlsWork
	for _, workers := range []int{1, 2} {
		m, trace := obs.New(0), obs.NewTrace(0)
		tc.Workers, tc.Metrics, tc.Trace = workers, m, trace
		f, err := shard.New(shard.Config{
			Grid: grid, Tracker: w.tracker(users, tc), InitialPositions: w.truths[0],
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for r, o := range w.obs {
			if _, err := f.Step(float64(r+1), o); err != nil {
				t.Fatalf("grid %s round %d: %v", grid, r, err)
			}
		}
		got := nnlsWork{solves: m.Counter("fit.nnls.solves").Value(), iters: m.Counter("fit.nnls.iters").Value()}
		sensors := make(map[uint64]int) // tile tracker seed -> its sensors
		for i := 0; i < f.NumTiles(); i++ {
			sensors[f.Tile(i).Seed] = f.Tile(i).Sensors
		}
		var spanSolves uint64
		for _, sp := range trace.Snapshot() {
			if sp.Tile < 0 { // a tile tracker's own span
				spanSolves += sp.NNLSSolves
				got.rows += sp.NNLSSolves * uint64(sensors[sp.Seed]-sp.MaskedSensors)
			}
		}
		if spanSolves != got.solves { // every solve must be weighted once
			t.Fatalf("grid %s: tracker spans hold %d solves, fit.nnls.solves %d", grid, spanSolves, got.solves)
		}
		if workers == 1 {
			ref = got
		} else if got != ref {
			t.Fatalf("grid %s: workers 2 did %+v, workers 1 %+v", grid, got, ref)
		}
	}
	return ref
}

// TestShardWorkReduction pins the two work cuts of the sharded tracker as
// deterministic NNLS counts instead of wall-clock ratios: a tile fits only
// its own sensors against only the users it owns, and the active-set cap
// bounds how many users one hot tile searches jointly. Each floor is at
// most half the measured cut (EXPERIMENTS E23). The same work done slower
// is perfbench's field-hotspot workload.
func TestShardWorkReduction(t *testing.T) {
	t.Run("tiles", func(t *testing.T) {
		// Four users, one per quadrant: 1×1 searches all four jointly, 2×2
		// runs four one-user searches.
		const users = 4
		w := buildWorld(t, 1, users, 2, skewTrajectories("quadrants", users))
		tc := smc.Config{N: 20, M: 10, VMax: 5}
		one := stepWork(t, w, users, shard.Grid{Rows: 1, Cols: 1, Halo: 2}, tc)
		four := stepWork(t, w, users, shard.Grid{Rows: 2, Cols: 2, Halo: 2}, tc)
		perSolve := func(w nnlsWork) float64 { return float64(w.rows) / float64(w.solves) }
		t.Logf("fit.nnls.solves 1x1 %d, 2x2 %d (%.2fx); sensors per solve %.1f, %.1f (%.2fx); iters %d, %d",
			one.solves, four.solves, float64(one.solves)/float64(four.solves),
			perSolve(one), perSolve(four), perSolve(one)/perSolve(four), one.iters, four.iters)
		if one.solves < 3*four.solves {
			t.Errorf("2x2 did %d NNLS solves against 1x1's %d: want at least 3x fewer", four.solves, one.solves)
		}
		if perSolve(one) < 1.5*perSolve(four) {
			t.Errorf("2x2 fit %.1f sensors per solve against 1x1's %.1f: want at least 1.5x fewer",
				perSolve(four), perSolve(one))
		}
	})
	t.Run("activeset", func(t *testing.T) {
		// Ten of twelve users in tile 0 of an 8×8 grid: uncapped, that tile
		// searches all ten jointly; the cap searches four.
		const users = 12
		w := buildWorld(t, 1, users, 2, skewTrajectories("hot-90", users))
		grid := shard.Grid{Rows: 8, Cols: 8, Halo: 2}
		tc := smc.Config{N: 50, M: 10, VMax: 5}
		all := stepWork(t, w, users, grid, tc)
		tc.ActiveSetLimit = 4
		capped := stepWork(t, w, users, grid, tc)
		t.Logf("fit.nnls.iters uncapped %d, cap 4 %d (%.2fx); solves %d, %d",
			all.iters, capped.iters, float64(all.iters)/float64(capped.iters), all.solves, capped.solves)
		if all.iters < 3*capped.iters {
			t.Errorf("cap 4 did %d NNLS iterations against uncapped %d: want at least 3x fewer", capped.iters, all.iters)
		}
	})
}
