package shard_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

// Scale-out coverage: the determinism contract under heavily skewed user
// distributions, capacity admission and spills, and the population-scale
// smoke digest the CI scale job runs with -race.

// skewTrajectories builds the user distributions of the scale work on the
// 30-unit field. "one-tile" parks the whole population inside tile 0 of
// every grid under test (the cluster fits in [0.4, 3.4]², inside tile 0 even
// at 8×8), and "hot-corner" clusters everyone at the far corner drifting
// together toward the field center, so the hot tile moves and the whole
// block crosses seams round after round. "quadrants" gives each field
// quadrant its own slow orbit (cycling, with a small offset, past four
// users), so a 2×2 grid owns one user per tile. "hot-90" packs the first 90%
// of the users into a 1.8-unit patch at the origin corner, inside tile 0 of
// an 8×8 grid, creeping toward the center; the rest ride the quadrant
// orbits.
func skewTrajectories(kind string, users int) []mobility.Trajectory {
	hot := 0
	if kind == "hot-90" {
		hot = users * 9 / 10
	}
	trajs := make([]mobility.Trajectory, users)
	for i := range trajs {
		fi := float64(i)
		switch {
		case kind == "one-tile":
			trajs[i] = mobility.Static{Pos: geom.Pt(0.4+0.3*fi, 3.1-0.27*fi)}
		case kind == "hot-corner":
			trajs[i] = mobility.Linear{
				Start: geom.Pt(26.5+0.25*fi, 28.2-0.3*fi),
				V:     geom.Vec{DX: -1.6, DY: -1.4},
			}
		case kind == "hot-90" && i < hot:
			trajs[i] = mobility.Linear{
				Start: geom.Pt(0.9+1.8*float64(i%97)/97, 0.9+1.8*float64(i*31%89)/89),
				V:     geom.Vec{DX: 0.12, DY: 0.12},
			}
		case kind == "quadrants" || kind == "hot-90":
			k := i - hot
			tr := quadrantOrbits[k%len(quadrantOrbits)]
			off := 0.69 * float64(k/len(quadrantOrbits))
			tr.Start = geom.Pt(tr.Start.X+off, tr.Start.Y+off)
			trajs[i] = tr
		default:
			panic("unknown skew kind " + kind)
		}
	}
	return trajs
}

// quadrantOrbits holds one slow linear orbit per quadrant of the 30-unit
// field.
var quadrantOrbits = []mobility.Linear{
	{Start: geom.Pt(6.9, 6.9), V: geom.Vec{DX: 0.51, DY: 0.39}},
	{Start: geom.Pt(23.1, 8.1), V: geom.Vec{DX: -0.39, DY: 0.51}},
	{Start: geom.Pt(8.1, 21.9), V: geom.Vec{DX: 0.51, DY: -0.39}},
	{Start: geom.Pt(21.9, 23.1), V: geom.Vec{DX: -0.51, DY: -0.51}},
}

// degrade precomputes a fault-injected view of the world's observation
// stream. One injector, applied once, shared by every run: all runs replay
// the identical degraded rounds, so any divergence between them is the
// field's fault, not the fault layer's.
func degrade(t *testing.T, w *world, cfg fault.Config, seed uint64) []fault.Observation {
	t.Helper()
	inj, err := fault.NewInjector(cfg, len(w.points), seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fault.Observation, 0, len(w.obs))
	for _, o := range w.obs {
		d, err := inj.Apply(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// skewOutcome captures everything a skewed run may legally vary nothing of.
type skewOutcome struct {
	results       []smc.StepResult
	handoffs      int
	spills        int
	firstMax      int     // tile-load max of the first routed round
	firstMean     float64 // and its mean
	lastMax       int
	finalOwners   []int
	skippedRounds int
}

// TestSkewedWorkerInvariance pins the determinism contract where it is
// hardest: heavily skewed distributions (everyone in one tile; a hot corner
// drifting across seams) on 4×4 and 8×8 grids, under fault injection, across
// worker counts. Different worker counts get different LPT plans, so this
// is also the check that scheduling changes the wall clock and nothing
// else.
func TestSkewedWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("skew determinism suite skipped in -short mode")
	}
	const users, rounds = 10, 8
	faultCfg := fault.Config{
		DropoutFrac: 0.10, LossProb: 0.10, DelayProb: 0.15, DelayRounds: 2, StuckFrac: 0.05,
	}
	for _, kind := range []string{"one-tile", "hot-corner"} {
		w := buildWorldSensors(t, 101, users, rounds, 420, skewTrajectories(kind, users))
		deg := degrade(t, w, faultCfg, 909)
		for _, grid := range []shard.Grid{
			{Rows: 4, Cols: 4, Halo: 2.5},
			{Rows: 8, Cols: 8, Halo: 2.5},
		} {
			kind, grid := kind, grid
			t.Run(kind+"/"+grid.String(), func(t *testing.T) {
				t.Parallel()
				run := func(workers int) skewOutcome {
					f, err := shard.New(shard.Config{
						Grid:    grid,
						Tracker: w.tracker(users, smc.Config{N: 120, M: 6, Workers: workers}),
						// Seed ownership from the true starting cluster so the
						// skew exists from round one, not only after handoffs
						// herd the users together.
						InitialPositions: w.truths[0],
					}, 33)
					if err != nil {
						t.Fatal(err)
					}
					var oc skewOutcome
					for r := range w.obs {
						d := deg[r]
						res, err := f.StepRound(smc.Round{T: float64(r + 1), Measured: d.Readings, Present: d.Present, Age: d.Age})
						if err != nil {
							if errors.Is(err, smc.ErrAllMasked) {
								oc.skippedRounds++
								continue
							}
							t.Fatalf("round %d: %v", r, err)
						}
						oc.results = append(oc.results, res)
						if r == 0 {
							oc.firstMax, oc.firstMean = f.Imbalance()
						}
					}
					oc.handoffs, oc.spills = f.Handoffs(), f.Spills()
					oc.lastMax, _ = f.Imbalance()
					for j := 0; j < users; j++ {
						oc.finalOwners = append(oc.finalOwners, f.Owner(j))
					}
					return oc
				}
				ref := run(1)
				// The imbalance metric must see the skew: round one routes the
				// population exactly where the true cluster sits.
				wantMax := 0
				counts := make([]int, grid.Tiles())
				for _, p := range w.truths[0] {
					i := grid.TileOf(w.sc.Field(), p)
					counts[i]++
					if counts[i] > wantMax {
						wantMax = counts[i]
					}
				}
				if ref.firstMax != wantMax {
					t.Errorf("first-round max tile load = %d, want %d (the true cluster)", ref.firstMax, wantMax)
				}
				if want := float64(users) / float64(grid.Tiles()); ref.firstMean != want {
					t.Errorf("first-round mean tile load = %v, want %v", ref.firstMean, want)
				}
				if ref.spills != 0 {
					t.Errorf("spills = %d without TileCapacity", ref.spills)
				}
				for _, workers := range []int{3, 8, 0} {
					if got := run(workers); !reflect.DeepEqual(got, ref) {
						t.Errorf("Workers=%d diverges from serial run", workers)
					}
				}
			})
		}
	}
}

// TestTileCapacityAdmissionAndSpill drives six users as one block from tile
// 0's interior diagonally into tile 3 of a 2×2 grid with TileCapacity 3:
// initial admission must overflow deterministically into the nearest tile
// with room (index tie-break picks tile 1 over tile 2), migrations into the
// full tile 3 must redirect or spill, no tile may ever own more than the
// cap, and the whole trace must replay byte-identically.
func TestTileCapacityAdmissionAndSpill(t *testing.T) {
	const users, rounds = 6, 10
	trajs := make([]mobility.Trajectory, users)
	starts := make([]geom.Point, users)
	for i := range trajs {
		fi := float64(i)
		starts[i] = geom.Pt(9+0.3*fi, 9.7-0.3*fi)
		trajs[i] = mobility.Linear{Start: starts[i], V: geom.Vec{DX: 1.5, DY: 1.5}}
	}
	w := buildWorld(t, 81, users, rounds, trajs)
	type trace struct {
		owners   [][]int
		handoffs int
		spills   int
	}
	run := func() trace {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 2, Cols: 2, Halo: 2},
			Tracker:          w.tracker(users, smc.Config{N: 250, M: 8}),
			TileCapacity:     3,
			InitialPositions: starts,
		}, 19)
		if err != nil {
			t.Fatal(err)
		}
		// All six want tile 0; capacity admits three and redirects the rest
		// to tile 1 — tiles 1 and 2 tie on center distance, so the index
		// tie-break decides.
		wantInit := []int{0, 0, 0, 1, 1, 1}
		for j, want := range wantInit {
			if got := f.Owner(j); got != want {
				t.Fatalf("initial owner of user %d = %d, want %d", j, got, want)
			}
		}
		var tr trace
		for r, o := range w.obs {
			if _, err := f.Step(float64(r+1), o); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			loads := make([]int, 4)
			owners := make([]int, users)
			for j := 0; j < users; j++ {
				owners[j] = f.Owner(j)
				loads[owners[j]]++
			}
			for i, l := range loads {
				if l > 3 {
					t.Fatalf("round %d: tile %d owns %d users, capacity 3", r, i, l)
				}
			}
			tr.owners = append(tr.owners, owners)
		}
		tr.handoffs, tr.spills = f.Handoffs(), f.Spills()
		return tr
	}
	first := run()
	final := first.owners[len(first.owners)-1]
	inT3 := 0
	for _, o := range final {
		if o == 3 {
			inT3++
		}
	}
	if inT3 != 3 {
		t.Errorf("final round: tile 3 owns %d users, want exactly its capacity 3 (owners %v)", inT3, final)
	}
	if first.handoffs < 3 {
		t.Errorf("handoffs = %d, want >= 3 (the block crossed into tile 3)", first.handoffs)
	}
	if first.spills < 1 {
		t.Errorf("spills = %d, want >= 1 (the overflow users are stuck outside a full tile)", first.spills)
	}
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Fatal("capacity admission trace is not reproducible")
	}
}

// TestTileCapacityValidation pins the construction-time capacity contract.
func TestTileCapacityValidation(t *testing.T) {
	w := buildWorld(t, 91, 1, 1, nil)
	base := shard.Config{
		Grid:    shard.Grid{Rows: 2, Cols: 2, Halo: 2},
		Tracker: w.tracker(9, smc.Config{N: 50, M: 5}),
	}
	over := base
	over.TileCapacity = 2 // 9 users > 2×4 slots
	if _, err := shard.New(over, 1); err == nil {
		t.Error("NumUsers over TileCapacity×tiles accepted")
	}
	neg := base
	neg.TileCapacity = -1
	if _, err := shard.New(neg, 1); err == nil {
		t.Error("negative TileCapacity accepted")
	}
	exact := base
	exact.TileCapacity = 3 // 9 users == 3×3, but over 4 tiles: 9 <= 12 fits
	if _, err := shard.New(exact, 1); err != nil {
		t.Errorf("TileCapacity with room rejected: %v", err)
	}
}

// TestTileCapacityNoOverflow: a capacity whose product with the tile count
// overflows int (2^62 × 4 tiles) has room for every user and is accepted.
func TestTileCapacityNoOverflow(t *testing.T) {
	w := buildWorld(t, 91, 1, 1, nil)
	cfg := shard.Config{
		Grid:         shard.Grid{Rows: 2, Cols: 2, Halo: 2},
		Tracker:      w.tracker(3, smc.Config{N: 50, M: 5}),
		TileCapacity: 1 << 62,
	}
	if _, err := shard.New(cfg, 1); err != nil {
		t.Fatalf("TileCapacity 2^62 on 4 tiles rejected: %v", err)
	}
}

// scaleSmokeUsers is the population of the scale smoke: 2000 by default so
// plain `go test ./...` stays quick, overridden by FLUXTRACK_SCALE_USERS in
// the CI scale job (10⁵ on an 8×8 grid under -race).
func scaleSmokeUsers(t *testing.T) int {
	if s := os.Getenv("FLUXTRACK_SCALE_USERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("FLUXTRACK_SCALE_USERS=%q is not a positive integer", s)
		}
		return n
	}
	return 2000
}

// digestEstimates folds a round's estimates into a running fnv-1a digest:
// the positions, activity, and stretch of every user, bit-exact.
func digestEstimates(h interface{ Write([]byte) (int, error) }, ests []smc.Estimate) {
	var buf [8]byte
	word := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, e := range ests {
		word(e.Mean.X)
		word(e.Mean.Y)
		word(e.Best.X)
		word(e.Best.Y)
		word(e.Stretch)
		if e.Active {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

// TestScaleSmokeDigest is the population-scale smoke behind the CI scale
// job: an 8×8 field tracking a large population must complete its rounds and
// produce a bit-identical estimate digest (and owner table, and handoff
// count) at different worker counts. The digest keeps memory flat — two full
// result histories at 10⁵ users would not fit the race detector's budget.
func TestScaleSmokeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	users := scaleSmokeUsers(t)
	const rounds = 3
	w := buildWorldSensors(t, 7, users, rounds, 160, nil)
	// Capacity at twice the even per-tile share: loose enough that a random
	// population routes mostly unimpeded, tight enough that the capacity
	// admission path runs at scale and its spill count joins the digest.
	capacity := (2*users + 63) / 64
	digest := func(workers int) uint64 {
		f, err := shard.New(shard.Config{
			Grid:         shard.Grid{Rows: 8, Cols: 8, Halo: 3},
			Tracker:      w.tracker(users, smc.Config{N: 60, M: 5, ActiveSetLimit: 6, Workers: workers}),
			TileCapacity: capacity,
		}, 77)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for r, o := range w.obs {
			res, err := f.Step(float64(r+1), o)
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			digestEstimates(h, res.Estimates)
		}
		var buf [8]byte
		for j := 0; j < users; j++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(f.Owner(j)))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(f.Handoffs()))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(f.Spills()))
		h.Write(buf[:])
		maxLoad, _ := f.Imbalance()
		binary.LittleEndian.PutUint64(buf[:], uint64(maxLoad))
		h.Write(buf[:])
		return h.Sum64()
	}
	serialish := digest(2)
	if wide := digest(0); wide != serialish {
		t.Fatalf("scale digest diverges across worker counts: %#x vs %#x", serialish, wide)
	}
}

// TestSpillGoldenHotCorner pins the exact spill count of the hardest
// capacity scenario — the whole population clustered in one corner tile
// (capacity 3) drifting across seams toward the center — as a seed-pinned
// golden. The count is a pure function of (world seed, field seed, config):
// any change to routing order, admission tie-breaks, or handoff sequencing
// shows up here as a changed constant, which a PR must then justify.
func TestSpillGoldenHotCorner(t *testing.T) {
	const users, rounds = 10, 8
	const wantSpills = 6 // seed-pinned: (world 13, field 29, 4×4 halo 2.5, cap 3)
	trajs := skewTrajectories("hot-corner", users)
	w := buildWorld(t, 13, users, rounds, trajs)
	starts := make([]geom.Point, users)
	for i, tr := range trajs {
		starts[i] = w.sc.Field().Clamp(tr.At(1))
	}
	run := func() (int, int) {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 4, Cols: 4, Halo: 2.5},
			Tracker:          w.tracker(users, smc.Config{N: 120, M: 6}),
			TileCapacity:     3,
			InitialPositions: starts,
		}, 29)
		if err != nil {
			t.Fatal(err)
		}
		for r, o := range w.obs {
			if _, err := f.Step(float64(r+1), o); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		return f.Spills(), f.Handoffs()
	}
	spills, handoffs := run()
	if spills != wantSpills {
		t.Errorf("hot-corner spills = %d, want pinned golden %d", spills, wantSpills)
	}
	if spills < 1 {
		t.Errorf("spills = %d: the hot corner over capacity 3 must spill", spills)
	}
	if handoffs < 1 {
		t.Errorf("handoffs = %d: the drifting cluster must cross seams", handoffs)
	}
	if again, _ := run(); again != spills {
		t.Fatalf("spill count not reproducible: %d then %d", spills, again)
	}
}
