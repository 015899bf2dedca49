package smc

import (
	"fmt"
	"math"
	"sort"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// This file is the tracker's checkpoint surface: a complete, self-contained
// export of everything Algorithm 4.1 accumulates across rounds — the
// per-user weighted sample sets, the asynchronous-update bookkeeping, the
// round counter, and every materialized RNG substream cursor — so a tracker
// rebuilt in a fresh process from the same Config and seed resumes mid-track
// byte-identically (see internal/serve for the wire codec and the
// crash-restart determinism tests that pin the contract).

// UserCheckpoint is one user's full resumable state: the portable snapshot
// the migration path already uses plus the user's private RNG substream
// cursor. Unlike UserSnapshot — which deliberately leaves the substream with
// the (tracker, slot) pair so migration never replays another tile's draws —
// a checkpoint must carry the cursor: the restored tracker's slot has made
// zero draws, and resuming the stream from zero would replay history.
type UserCheckpoint struct {
	User     int
	Snapshot UserSnapshot
	RNG      rng.State
}

// TrackerState is the complete resumable state of a Tracker. Seed and
// NumUsers identify the configuration the state belongs to; RestoreState
// rejects a mismatch, because an unmaterialized user's substream is derived
// from (seed, index) at first touch and a different seed would silently
// diverge. Users holds only materialized slots, in ascending user order —
// a tracker responsible for a thin slice of a huge population checkpoints
// only the users it has actually seen.
type TrackerState struct {
	Seed     uint64
	NumUsers int
	Steps    int
	Users    []UserCheckpoint
}

// ExportState deep-copies the tracker's complete resumable state. Exporting
// never mutates the tracker: a checkpointed tracker and its restored twin
// produce identical estimates from the next Step on, and the original may
// keep stepping as if nothing happened.
func (tr *Tracker) ExportState() TrackerState {
	st := TrackerState{
		Seed:     tr.seed,
		NumUsers: tr.cfg.NumUsers,
		Steps:    tr.steps,
		Users:    make([]UserCheckpoint, 0, len(tr.users)),
	}
	for j, u := range tr.users {
		snap := u.UserSnapshot
		snap.Samples = append([]geom.Point(nil), u.Samples...)
		snap.Weights = append([]float64(nil), u.Weights...)
		st.Users = append(st.Users, UserCheckpoint{User: j, Snapshot: snap, RNG: u.src.State()})
	}
	sort.Slice(st.Users, func(a, b int) bool { return st.Users[a].User < st.Users[b].User })
	return st
}

// Check reports whether st can be restored into a tracker built with the
// given seed and population size: matching seed and size, a non-negative
// step count, users strictly ascending within range, every initialized
// user with a non-empty sample set and aligned weights, and every restored
// float finite, with no negative weight. RestoreState runs it before it
// touches anything; a sharded field runs it on every tile's state first.
func (st TrackerState) Check(seed uint64, numUsers int) error {
	if st.Seed != seed {
		return fmt.Errorf("smc: restore seed %#x into tracker seeded %#x", st.Seed, seed)
	}
	if st.NumUsers != numUsers {
		return fmt.Errorf("smc: restore of %d users into tracker of %d", st.NumUsers, numUsers)
	}
	if st.Steps < 0 {
		return fmt.Errorf("smc: restore with negative step count %d", st.Steps)
	}
	prev := -1
	for _, uc := range st.Users {
		if uc.User <= prev || uc.User >= numUsers {
			return fmt.Errorf("smc: restore user list not strictly ascending within [0,%d)", numUsers)
		}
		prev = uc.User
		s := uc.Snapshot
		if s.Initialized {
			if len(s.Samples) == 0 {
				return fmt.Errorf("smc: restore user %d initialized with no samples", uc.User)
			}
			if len(s.Samples) != len(s.Weights) {
				return fmt.Errorf("smc: restore user %d has %d samples but %d weights",
					uc.User, len(s.Samples), len(s.Weights))
			}
		}
		finite := isFinite(s.LastUpdate) && isFinite(s.Velocity.DX) && isFinite(s.Velocity.DY) &&
			isFinite(s.PrevMean.X) && isFinite(s.PrevMean.Y) && (!uc.RNG.HasSpare || isFinite(uc.RNG.Spare))
		for _, p := range s.Samples {
			finite = finite && isFinite(p.X) && isFinite(p.Y)
		}
		for _, w := range s.Weights {
			finite = finite && isFinite(w) && w >= 0
		}
		if !finite {
			return fmt.Errorf("smc: restore user %d carries a non-finite value or a negative weight", uc.User)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// RestoreState replaces the tracker's state with a deep copy of st, after
// st.Check against the tracker's seed and population size; a rejected state
// leaves the tracker untouched. Every slot st does not carry reverts to the
// untouched bootstrap state, exactly as in a fresh tracker. After
// RestoreState the tracker is the exporting tracker's process-equivalent
// twin: the same observation stream produces byte-identical estimates (the
// searcher's work counters restart at zero, but they only ever feed
// scheduling and observability, never output). The next round must be
// later than the latest LastUpdate of the restored initialized users.
func (tr *Tracker) RestoreState(st TrackerState) error {
	if err := st.Check(tr.seed, tr.cfg.NumUsers); err != nil {
		return err
	}
	// Rebuild the user map wholesale. Dropping untouched slots (rather than
	// resetting them) matches a fresh process exactly — their substreams
	// re-derive from (seed, index) on first touch.
	clear(tr.users)
	tr.lastT = math.Inf(-1)
	for _, uc := range st.Users {
		u := tr.ensure(uc.User)
		u.UserSnapshot = uc.Snapshot
		u.Samples = append([]geom.Point(nil), uc.Snapshot.Samples...)
		u.Weights = append([]float64(nil), uc.Snapshot.Weights...)
		u.src.Restore(uc.RNG)
		if u.Initialized {
			tr.lastT = math.Max(tr.lastT, u.LastUpdate)
		}
	}
	tr.steps = st.Steps
	return nil
}
