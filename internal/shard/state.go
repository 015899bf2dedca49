package shard

import (
	"fmt"
	"math"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/smc"
)

// This file is the sharded field's checkpoint surface, mirroring
// smc.TrackerState one level up: the owner table, the carried-forward
// estimate cache, the coordinator's cumulative counters, and every tile
// tracker's complete state. A Field rebuilt in a fresh process from the same
// Config and seed restores this state and resumes mid-track byte-identically
// (see internal/serve and DESIGN.md §6.8 for the resume-determinism
// argument).

// FieldState is the complete resumable state of a sharded Field. Seed,
// NumUsers, and the tile count identify the configuration; RestoreState
// rejects a mismatch. The per-tile NNLS-work checkpoints that feed the LPT
// scheduler's cost model are deliberately NOT part of the state: a restored
// field re-baselines them against its fresh searchers, which can only change
// which worker runs a tile — never what the tile computes.
type FieldState struct {
	Seed     uint64
	NumUsers int
	Tiles    int
	Steps    int
	Handoffs int
	Spills   int
	LastMax  int
	LastMean float64
	// Owner is the user → owning-tile table.
	Owner []int
	// LastEst caches each user's most recent estimate — the value a skipped
	// (all-masked) tile's users keep reporting, so resume must carry it.
	LastEst []smc.Estimate
	// Trackers holds each tile tracker's state, in ascending tile order.
	Trackers []smc.TrackerState
}

// ExportState deep-copies the field's complete resumable state without
// mutating it; the exporting field may keep stepping as if nothing happened.
func (f *Field) ExportState() FieldState {
	st := FieldState{
		Seed:     f.seed,
		NumUsers: f.cfg.Tracker.NumUsers,
		Tiles:    len(f.tiles),
		Steps:    f.steps,
		Handoffs: f.handoffs,
		Spills:   f.spills,
		LastMax:  f.lastMax,
		LastMean: f.lastMean,
		Owner:    append([]int(nil), f.owner...),
		LastEst:  make([]smc.Estimate, len(f.lastEst)),
		Trackers: make([]smc.TrackerState, len(f.tiles)),
	}
	for j, e := range f.lastEst {
		st.LastEst[j] = cloneEstimate(e)
	}
	for i, tl := range f.tiles {
		st.Trackers[i] = tl.tracker.ExportState()
	}
	return st
}

// RestoreState replaces the field's state with a deep copy of st. The field
// must have been built from the same Config seed, population size, and grid
// the state was exported under, and every restored float must be finite
// with no negative weight; the whole state, every tile's included, is
// checked before anything changes, so a rejected state leaves the field
// untouched. After RestoreState the field is the exporting field's
// process-equivalent twin: the same observation stream produces
// byte-identical estimates, owner tables, handoff and spill counts. The
// next round must be later than the latest LastUpdate of the restored
// initialized users.
func (f *Field) RestoreState(st FieldState) error {
	if st.Seed != f.seed {
		return fmt.Errorf("shard: restore seed %#x into field seeded %#x", st.Seed, f.seed)
	}
	if st.NumUsers != f.cfg.Tracker.NumUsers {
		return fmt.Errorf("shard: restore of %d users into field of %d", st.NumUsers, f.cfg.Tracker.NumUsers)
	}
	if st.Tiles != len(f.tiles) {
		return fmt.Errorf("shard: restore of %d tiles into %s grid (%d tiles)", st.Tiles, f.cfg.Grid, len(f.tiles))
	}
	if len(st.Owner) != f.cfg.Tracker.NumUsers || len(st.LastEst) != f.cfg.Tracker.NumUsers {
		return fmt.Errorf("shard: restore tables sized %d/%d, want %d",
			len(st.Owner), len(st.LastEst), f.cfg.Tracker.NumUsers)
	}
	if len(st.Trackers) != len(f.tiles) {
		return fmt.Errorf("shard: restore carries %d tracker states for %d tiles", len(st.Trackers), len(f.tiles))
	}
	if st.Steps < 0 || st.Handoffs < 0 || st.Spills < 0 {
		return fmt.Errorf("shard: restore with negative counters (steps %d, handoffs %d, spills %d)",
			st.Steps, st.Handoffs, st.Spills)
	}
	if !finite(st.LastMean) {
		return fmt.Errorf("shard: restore with non-finite mean tile load %v", st.LastMean)
	}
	load := make([]int, len(f.tiles))
	for j, o := range st.Owner {
		if o < 0 || o >= len(f.tiles) {
			return fmt.Errorf("shard: restore owner[%d] = %d outside [0,%d)", j, o, len(f.tiles))
		}
		load[o]++
	}
	if c := f.cfg.TileCapacity; c > 0 {
		for i, l := range load {
			if l > c {
				return fmt.Errorf("shard: restore loads tile %d with %d users over capacity %d", i, l, c)
			}
		}
	}
	for j, e := range st.LastEst {
		ok := finite(e.Mean.X) && finite(e.Mean.Y) && finite(e.Best.X) && finite(e.Best.Y) && finite(e.Stretch)
		for _, p := range e.Samples {
			ok = ok && finite(p.X) && finite(p.Y)
		}
		for _, w := range e.Weights {
			ok = ok && finite(w) && w >= 0
		}
		if !ok {
			return fmt.Errorf("shard: restore estimate of user %d carries a non-finite value or a negative weight", j)
		}
	}
	// Tile seeds are pure functions of (field seed, tile), so a state
	// exported under this exact configuration always passes.
	for i, tl := range f.tiles {
		if err := st.Trackers[i].Check(tl.seed, f.cfg.Tracker.NumUsers); err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err)
		}
	}
	f.lastT = math.Inf(-1)
	for i, tl := range f.tiles {
		if err := tl.tracker.RestoreState(st.Trackers[i]); err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err) // unreachable: checked above
		}
		// Re-baseline the LPT cost checkpoints against the restored
		// searcher's counters (scheduling-only; see FieldState).
		tl.prevSolves, tl.prevIters = tl.tracker.WorkTotals()
		for _, uc := range st.Trackers[i].Users {
			if uc.Snapshot.Initialized {
				f.lastT = math.Max(f.lastT, uc.Snapshot.LastUpdate)
			}
		}
	}
	copy(f.owner, st.Owner)
	copy(f.load, load)
	for j := range f.lastEst {
		f.lastEst[j] = cloneEstimate(st.LastEst[j])
	}
	f.steps = st.Steps
	f.handoffs = st.Handoffs
	f.spills = st.Spills
	f.lastMax = st.LastMax
	f.lastMean = st.LastMean
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// cloneEstimate deep-copies one estimate (its sample/weight slices are the
// only reference fields). Zero-length slices stay nil, so an export/restore
// round trip reproduces the original estimate bit for bit under DeepEqual.
func cloneEstimate(e smc.Estimate) smc.Estimate {
	out := e
	out.Samples, out.Weights = nil, nil
	if len(e.Samples) > 0 {
		out.Samples = append([]geom.Point(nil), e.Samples...)
	}
	if len(e.Weights) > 0 {
		out.Weights = append([]float64(nil), e.Weights...)
	}
	return out
}
