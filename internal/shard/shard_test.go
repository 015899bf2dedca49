package shard_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/traffic"
)

func TestParseGrid(t *testing.T) {
	g, err := shard.ParseGrid("2x3")
	if err != nil || g.Rows != 2 || g.Cols != 3 {
		t.Fatalf("ParseGrid(2x3) = %v, %v", g, err)
	}
	if g.String() != "2x3" {
		t.Fatalf("String() = %q", g.String())
	}
	for _, bad := range []string{"", "2", "2x", "x2", "0x2", "2x-1", "2y2", "axb",
		"4294967296x4294967296", "9223372036854775807x2"} {
		if _, err := shard.ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted", bad)
		}
	}
}

// TestGridWithMoreTilesThanSensors: every tile needs a sensor, so New
// rejects a grid with more tiles than sensors before it allocates any
// per-tile state — including grids whose tile count overflows int.
func TestGridWithMoreTilesThanSensors(t *testing.T) {
	w := buildWorld(t, 71, 1, 1, nil) // 90 sensors
	for _, g := range []shard.Grid{
		{Rows: 91, Cols: 1}, {Rows: 1, Cols: 91}, {Rows: 10, Cols: 10},
		{Rows: 30000, Cols: 30000}, {Rows: math.MaxInt, Cols: 2},
	} {
		_, err := shard.New(shard.Config{Grid: g, Tracker: w.tracker(1, smc.Config{N: 20, M: 5})}, 1)
		if err == nil || !strings.Contains(err.Error(), "more tiles than") {
			t.Errorf("grid %s: err %v, want a more-tiles-than-sensors rejection", g, err)
		}
	}
}

// TestTileOfBoundaries pins the deterministic ownership rules of the plain
// rect partition: seam points go to the upper/right tile, the exact field
// corner clamps into the last tile, and the four-tile corner point resolves
// by the same two rules.
func TestTileOfBoundaries(t *testing.T) {
	field := geom.Square(30)
	g := shard.Grid{Rows: 2, Cols: 2}
	cases := []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(7, 7), 0},
		{geom.Pt(20, 7), 1},
		{geom.Pt(7, 20), 2},
		{geom.Pt(20, 20), 3},
		{geom.Pt(15, 7), 1},  // exactly on the vertical seam: right tile
		{geom.Pt(7, 15), 2},  // exactly on the horizontal seam: upper tile
		{geom.Pt(15, 15), 3}, // the four-tile corner: upper-right tile
		{geom.Pt(0, 0), 0},   // field min corner
		{geom.Pt(30, 30), 3}, // field max corner clamps into the last tile
		{geom.Pt(30, 0), 1},  // max-x edge
		{geom.Pt(-5, 40), 2}, // out of field: clamps
		{geom.Pt(29.999, 15), 3},
	}
	for _, c := range cases {
		if got := g.TileOf(field, c.p); got != c.want {
			t.Errorf("TileOf(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// A 3x1 grid: rows split the y axis only.
	g31 := shard.Grid{Rows: 3, Cols: 1}
	if got := g31.TileOf(field, geom.Pt(15, 10)); got != 1 {
		t.Errorf("3x1 TileOf(15,10) = %d, want 1", got)
	}
	if got := g31.TileOf(field, geom.Pt(15, 9.999)); got != 0 {
		t.Errorf("3x1 TileOf(15,9.999) = %d, want 0", got)
	}
}

// world is a small deterministic test scenario with a precomputed
// observation stream.
type world struct {
	sc      *core.Scenario
	sniffer *core.Sniffer
	points  []geom.Point
	obs     [][]float64
	truths  [][]geom.Point
}

func buildWorld(t *testing.T, seed uint64, users, rounds int, trajs []mobility.Trajectory) *world {
	return buildWorldSensors(t, seed, users, rounds, 90, trajs)
}

func buildWorldSensors(t *testing.T, seed uint64, users, rounds, sensors int, trajs []mobility.Trajectory) *world {
	t.Helper()
	src := rng.New(seed)
	sc, err := core.NewScenario(core.ScenarioConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	sniffer, err := sc.NewSnifferCount(sensors, src)
	if err != nil {
		t.Fatal(err)
	}
	if trajs == nil {
		trajs = make([]mobility.Trajectory, users)
		for i := range trajs {
			w, err := mobility.NewRandomWalk(sc.Field(), src.InRect(sc.Field()), 3, rounds+1, src)
			if err != nil {
				t.Fatal(err)
			}
			trajs[i] = w
		}
	}
	stretches := make([]float64, users)
	for i := range stretches {
		stretches[i] = src.Uniform(1, 3)
	}
	w := &world{sc: sc, sniffer: sniffer, points: sniffer.Points()}
	for r := 0; r < rounds; r++ {
		tm := float64(r + 1)
		us := make([]traffic.User, users)
		truth := make([]geom.Point, users)
		for i := range us {
			truth[i] = sc.Field().Clamp(trajs[i].At(tm))
			us[i] = traffic.User{Pos: truth[i], Stretch: stretches[i], Active: true}
		}
		o, err := sniffer.Observe(us, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		w.obs = append(w.obs, o)
		w.truths = append(w.truths, truth)
	}
	return w
}

// tracker completes tc with the world's deployment: its model, every
// sniffed sensor, and users tracked users.
func (w *world) tracker(users int, tc smc.Config) smc.Config {
	tc.Model, tc.SamplePoints, tc.NumUsers = w.sc.Model(), w.points, users
	return tc
}

// maskAlternate drops every second sensor.
func maskAlternate(n int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = i%2 == 0
	}
	return p
}

// TestOneByOneReproducesUnsharded is the core acceptance contract: a 1×1
// grid is the unsharded tracker, byte for byte — clean rounds, partially
// masked rounds, fully masked rounds, with and without the coarse prestage
// and the active-set cap.
func TestOneByOneReproducesUnsharded(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.TrackerConfig
		tmpl smc.Config
	}{
		{
			name: "plain",
			cfg:  core.TrackerConfig{N: 150, M: 8},
			tmpl: smc.Config{N: 150, M: 8},
		},
		{
			name: "coarse",
			cfg: core.TrackerConfig{N: 150, M: 8,
				Coarse: fingerprint.CoarseConfig{Enabled: true, TopK: 24, GridRes: 10}},
			tmpl: smc.Config{N: 150, M: 8,
				Coarse: fingerprint.CoarseConfig{Enabled: true, TopK: 24, GridRes: 10}},
		},
		{
			name: "activeset",
			cfg:  core.TrackerConfig{N: 120, M: 6, ActiveSetLimit: 2},
			tmpl: smc.Config{N: 120, M: 6, ActiveSetLimit: 2},
		},
	}
	const users, rounds = 3, 6
	w := buildWorld(t, 11, users, rounds, nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := w.sniffer.NewTracker(users, tc.cfg, 77)
			if err != nil {
				t.Fatal(err)
			}
			f, err := shard.New(shard.Config{
				Grid:    shard.Grid{Rows: 1, Cols: 1},
				Tracker: w.tracker(users, tc.tmpl),
			}, 77)
			if err != nil {
				t.Fatal(err)
			}
			if f.NumTiles() != 1 {
				t.Fatalf("NumTiles = %d", f.NumTiles())
			}
			if ti := f.Tile(0); ti.Seed != 77 || ti.Sensors != len(w.points) {
				t.Fatalf("1x1 tile = %+v: want seed passthrough and the full sensor set", ti)
			}
			for r, o := range w.obs {
				tm := float64(r + 1)
				var present []bool
				switch r {
				case 3:
					present = maskAlternate(len(o))
				case 4:
					present = make([]bool, len(o)) // fully masked round
				}
				want, wantErr := plain.StepRound(smc.Round{T: tm, Measured: o, Present: present})
				got, gotErr := f.StepRound(smc.Round{T: tm, Measured: o, Present: present})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("round %d: err %v vs %v", r, wantErr, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Fatalf("round %d: error %q vs %q", r, wantErr, gotErr)
					}
					if !errors.Is(gotErr, smc.ErrAllMasked) {
						t.Fatalf("round %d: sharded error does not wrap ErrAllMasked: %v", r, gotErr)
					}
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d: sharded result diverged\nunsharded: %+v\n  sharded: %+v", r, want, got)
				}
			}
			if f.Handoffs() != 0 {
				t.Fatalf("1x1 grid recorded %d handoffs", f.Handoffs())
			}
			if f.Steps() != plain.Steps() {
				t.Fatalf("Steps: %d vs %d", f.Steps(), plain.Steps())
			}
		})
	}
}

func newTestField(t *testing.T, w *world, users, workers int, halo float64, seed uint64) *shard.Field {
	t.Helper()
	f, err := shard.New(shard.Config{
		Grid:    shard.Grid{Rows: 2, Cols: 2, Halo: halo},
		Tracker: w.tracker(users, smc.Config{N: 150, M: 8, Workers: workers}),
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkerInvariance pins the determinism contract: a 2×2 field produces
// byte-identical results and handoff counts at any worker count, which
// bounds both the tile fan-out and each tile's step.
func TestWorkerInvariance(t *testing.T) {
	const users, rounds = 4, 6
	w := buildWorld(t, 5, users, rounds, nil)
	type outcome struct {
		results []smc.StepResult
		hand    int
	}
	run := func(workers int) outcome {
		f := newTestField(t, w, users, workers, 1.5, 9)
		var oc outcome
		for r, o := range w.obs {
			res, err := f.Step(float64(r+1), o)
			if err != nil {
				t.Fatal(err)
			}
			oc.results = append(oc.results, res)
		}
		oc.hand = f.Handoffs()
		return oc
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		if got.hand != ref.hand {
			t.Fatalf("workers=%d: %d handoffs, want %d", workers, got.hand, ref.hand)
		}
		if !reflect.DeepEqual(got.results, ref.results) {
			t.Fatalf("workers=%d diverged from serial run", workers)
		}
	}
}

// TestSeamHandoff drives one user straight across the vertical seam and
// checks the sample set migrates: ownership flips to the right tile, the
// handoff is counted, and a second identical run reproduces the same
// estimates and the same ownership trace.
func TestSeamHandoff(t *testing.T) {
	const rounds = 10
	traj := []mobility.Trajectory{
		mobility.Linear{Start: geom.Pt(9, 8), V: geom.Vec{DX: 1.8, DY: 0}},
	}
	w := buildWorld(t, 21, 1, rounds, traj)
	run := func() ([]geom.Point, []int, int) {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 2, Cols: 2, Halo: 2},
			Tracker:          w.tracker(1, smc.Config{N: 300, M: 10}),
			InitialPositions: []geom.Point{traj[0].At(1)},
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if f.Owner(0) != 0 {
			t.Fatalf("initial owner = %d, want 0", f.Owner(0))
		}
		var means []geom.Point
		var owners []int
		for r, o := range w.obs {
			res, err := f.Step(float64(r+1), o)
			if err != nil {
				t.Fatal(err)
			}
			means = append(means, res.Estimates[0].Mean)
			owners = append(owners, f.Owner(0))
		}
		return means, owners, f.Handoffs()
	}
	means, owners, hand := run()
	if owners[len(owners)-1] != 1 {
		t.Fatalf("user never handed off to tile 1: owners = %v (final means %v)", owners, means[len(means)-1])
	}
	if hand < 1 {
		t.Fatalf("handoffs = %d, want >= 1", hand)
	}
	// The estimate must keep tracking through the migration: the final
	// truth is deep inside tile 1.
	finalErr := means[len(means)-1].Sub(w.truths[rounds-1][0]).Norm()
	if finalErr > 6 {
		t.Fatalf("post-handoff error %.2f too large (mean %v, truth %v)",
			finalErr, means[len(means)-1], w.truths[rounds-1][0])
	}
	means2, owners2, hand2 := run()
	if !reflect.DeepEqual(means, means2) || !reflect.DeepEqual(owners, owners2) || hand != hand2 {
		t.Fatal("seam-handoff run is not reproducible")
	}
}

// TestCornerCrossing drives a user diagonally through the exact center
// corner where all four tiles meet; ownership must end in tile 3 through a
// deterministic, reproducible ownership trace.
func TestCornerCrossing(t *testing.T) {
	const rounds = 10
	traj := []mobility.Trajectory{
		mobility.Linear{Start: geom.Pt(10.5, 10.5), V: geom.Vec{DX: 1.5, DY: 1.5}},
	}
	w := buildWorld(t, 31, 1, rounds, traj)
	run := func() ([]int, int) {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 2, Cols: 2, Halo: 2},
			Tracker:          w.tracker(1, smc.Config{N: 300, M: 10}),
			InitialPositions: []geom.Point{traj[0].At(1)},
		}, 13)
		if err != nil {
			t.Fatal(err)
		}
		var owners []int
		for r, o := range w.obs {
			if _, err := f.Step(float64(r+1), o); err != nil {
				t.Fatal(err)
			}
			owners = append(owners, f.Owner(0))
		}
		return owners, f.Handoffs()
	}
	owners, hand := run()
	if owners[len(owners)-1] != 3 {
		t.Fatalf("corner crossing ended in tile %d, want 3 (trace %v)", owners[len(owners)-1], owners)
	}
	if hand < 1 {
		t.Fatalf("handoffs = %d, want >= 1", hand)
	}
	owners2, hand2 := run()
	if !reflect.DeepEqual(owners, owners2) || hand != hand2 {
		t.Fatal("corner-crossing run is not reproducible")
	}
}

// TestExactBoundaryAssignment pins "user landing exactly on a tile
// boundary": initial positions on the seam and the four-corner point take
// the deterministic upper/right rule.
func TestExactBoundaryAssignment(t *testing.T) {
	w := buildWorld(t, 41, 3, 1, []mobility.Trajectory{
		mobility.Linear{Start: geom.Pt(15, 7)},
		mobility.Linear{Start: geom.Pt(7, 15)},
		mobility.Linear{Start: geom.Pt(15, 15)},
	})
	f, err := shard.New(shard.Config{
		Grid:    shard.Grid{Rows: 2, Cols: 2},
		Tracker: w.tracker(3, smc.Config{N: 100, M: 5}),
		InitialPositions: []geom.Point{
			geom.Pt(15, 7), geom.Pt(7, 15), geom.Pt(15, 15),
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []int{1, 2, 3} {
		if got := f.Owner(j); got != want {
			t.Errorf("owner of boundary user %d = %d, want %d", j, got, want)
		}
	}
	if _, err := f.Step(1, w.obs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestMaskedRoundsDuringMigration injects masked rounds — including rounds
// that fully mask the migrating user's tile — around a seam crossing: the
// round must degrade (estimates carried, Active false) rather than fail,
// the handoff must still happen once the tile sees flux again, and two runs
// must agree byte for byte.
func TestMaskedRoundsDuringMigration(t *testing.T) {
	const rounds = 12
	traj := []mobility.Trajectory{
		mobility.Linear{Start: geom.Pt(9, 8), V: geom.Vec{DX: 1.6, DY: 0.3}},
	}
	w := buildWorld(t, 51, 1, rounds, traj)

	// Sensor indices of tile 0 under halo 2 — masked entirely on round 5 to
	// starve the owning tile mid-crossing.
	f0, err := shard.New(shard.Config{
		Grid:    shard.Grid{Rows: 2, Cols: 2, Halo: 2},
		Tracker: w.tracker(1, smc.Config{N: 200, M: 8}),
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	tile0 := f0.Tile(0)
	inTile0 := func(p geom.Point) bool { return tile0.Bounds.Contains(p) }

	present := func(r, n int) []bool {
		switch r {
		case 4: // drop every third sensor
			p := make([]bool, n)
			for i := range p {
				p[i] = i%3 != 0
			}
			return p
		case 5: // fully starve tile 0
			p := make([]bool, n)
			for i := range p {
				p[i] = !inTile0(w.points[i])
			}
			return p
		default:
			return nil
		}
	}

	run := func() ([]smc.StepResult, []int, int) {
		f, err := shard.New(shard.Config{
			Grid:             shard.Grid{Rows: 2, Cols: 2, Halo: 2},
			Tracker:          w.tracker(1, smc.Config{N: 200, M: 8}),
			InitialPositions: []geom.Point{traj[0].At(1)},
		}, 7)
		if err != nil {
			t.Fatal(err)
		}
		var results []smc.StepResult
		var owners []int
		for r, o := range w.obs {
			res, err := f.StepRound(smc.Round{T: float64(r + 1), Measured: o, Present: present(r, len(o))})
			if err != nil {
				// Only a fully-starved owning tile may skip, and only while
				// the user still sits in tile 0.
				if !errors.Is(err, smc.ErrAllMasked) {
					t.Fatalf("round %d: %v", r, err)
				}
				continue
			}
			results = append(results, res)
			owners = append(owners, f.Owner(0))
		}
		return results, owners, f.Handoffs()
	}
	res1, own1, hand1 := run()
	if own1[len(own1)-1] != 1 {
		t.Fatalf("user never migrated: owners %v", own1)
	}
	if hand1 < 1 {
		t.Fatal("no handoff recorded")
	}
	res2, own2, hand2 := run()
	if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(own1, own2) || hand1 != hand2 {
		t.Fatal("masked-migration run is not reproducible")
	}
}

// TestConcurrentShardStepRace exercises the concurrent tile fan-out under
// the race detector: tile-level and tracker-level workers both above one,
// several rounds, with masked rounds mixed in.
func TestConcurrentShardStepRace(t *testing.T) {
	const users, rounds = 6, 5
	w := buildWorld(t, 61, users, rounds, nil)
	f := newTestField(t, w, users, 4, 1, 17)
	for r, o := range w.obs {
		var present []bool
		if r == 2 {
			present = maskAlternate(len(o))
		}
		if _, err := f.StepRound(smc.Round{T: float64(r + 1), Measured: o, Present: present}); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

// TestTemplateRejectsPresetCoarse pins the misuse guard: tiles must build
// their own databases.
func TestTemplateRejectsPresetCoarse(t *testing.T) {
	w := buildWorld(t, 71, 1, 1, nil)
	db, err := fingerprint.NewDB(w.sc.Model(), w.points, fingerprint.CoarseConfig{Enabled: true, GridRes: 8}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := smc.Config{N: 50, M: 5}
	tmpl.Search.Coarse = &fit.Coarse{DB: db}
	_, err = shard.New(shard.Config{
		Grid:    shard.Grid{Rows: 1, Cols: 1},
		Tracker: w.tracker(1, tmpl),
	}, 1)
	if err == nil {
		t.Fatal("preset Search.Coarse accepted")
	}
}
