package exp

import (
	"strconv"
	"strings"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/rng"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID:      "demo",
		Title:   "demo table",
		Paper:   "paper shape",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tbl.Render()
	for _, want := range []string{"demo", "paper shape", "long_column", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c.Trials != d.Trials || c.Samples != d.Samples || c.TrackN != d.TrackN {
		t.Errorf("withDefaults mismatch: %+v vs %+v", c, d)
	}
	q := QuickConfig()
	if q.Trials >= d.Trials || q.Samples >= d.Samples {
		t.Error("QuickConfig is not smaller than DefaultConfig")
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	c := DefaultConfig()
	seen := map[uint64]string{}
	for _, exp := range []string{"a", "b"} {
		for cell := 0; cell < 3; cell++ {
			for trial := 0; trial < 3; trial++ {
				s := c.trialSeed(exp, cell, trial)
				key := exp + strconv.Itoa(cell) + strconv.Itoa(trial)
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision between %s and %s", prev, key)
				}
				seen[s] = key
			}
		}
	}
}

func TestMatchErrors(t *testing.T) {
	estimates := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	truths := []geom.Point{geom.Pt(9, 9), geom.Pt(1, 1)}
	errs := matchErrors(estimates, truths)
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2", len(errs))
	}
	for _, e := range errs {
		if e > 1.5 {
			t.Errorf("greedy matching failed: error %v", e)
		}
	}
	// More estimates than truths: extra estimates are dropped.
	errs = matchErrors(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(9, 9)},
		[]geom.Point{geom.Pt(1, 1)})
	if len(errs) != 1 {
		t.Errorf("got %d errors with 1 truth, want 1", len(errs))
	}
}

func TestRegistryAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registry has %d experiments, want 24", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.Run == nil {
			t.Errorf("experiment %s has nil Run", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID with unknown id must error")
	}
}

// TestQuickExperimentsSmoke runs a fast subset of experiments end-to-end
// with QuickConfig and sanity-checks the table shapes. The heavier tracking
// and trace experiments are exercised by TestQuickTrackingSmoke and the
// benchmarks.
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Trials = 1
	for _, id := range []string{
		"fig3a", "fig3b", "fig4", "fig5",
		"ablation-search", "ablation-smoothing",
		"baseline-ekf", "ablation-heading",
		"ablation-packet", "aggregation", "noise", "countermeasure",
	} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tbl.ID != id {
			t.Errorf("%s: table id %q", id, tbl.ID)
		}
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s: row width %d != %d columns", id, len(row), len(tbl.Columns))
			}
		}
	}
}

// TestQuickTrackingSmoke exercises a tracking experiment cell end-to-end.
func TestQuickTrackingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tracking smoke test skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Trials = 1
	cfg.Rounds = 4
	tbl, err := AblationImportance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("ablation-importance has %d rows, want 2", len(tbl.Rows))
	}
}

// TestTrackingAccuracyNoiseBand pins the fig7/fig8 error metrics to a
// generous statistical band. The per-user RNG substreams shifted the exact
// golden values once (each user now draws from its own deterministic
// stream), so this checks what the goldens cannot: tracking accuracy itself
// stayed in the regime the paper reports. A fig7-style single user on a
// straight line must end well-converged, and a fig8-style random-walk pair
// at 10% sampling must stay inside the plausible error range.
func TestTrackingAccuracyNoiseBand(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy noise-band test skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Trials = 1
	cfg.Rounds = 6
	seed := cfg.trialSeed("noiseband", 0, 0)

	// fig7(a) shape: one user, straight trajectory, full-network flux.
	sc := mustScenario(defaultScenarioCfg(), seed)
	src := rng.New(seed + 17)
	trajs := []mobility.Trajectory{
		mobility.Linear{Start: geom.Pt(4, 15), V: geom.Vec{DX: 2, DY: 0.5}},
	}
	run, err := trackTrial(cfg, sc, trajs, sc.Network().Len(), false, src)
	if err != nil {
		t.Fatal(err)
	}
	perRound := run.errs()
	final := perRound[len(perRound)-1]
	if final > 2.5 {
		t.Errorf("fig7-style single-user final error %.2f, want <= 2.5 (paper: < 2); all rounds: %v",
			final, perRound)
	}

	// fig8(a) shape: two random walkers at 10% sampling.
	sc2 := mustScenario(defaultScenarioCfg(), seed+1)
	src2 := rng.New(seed + 18)
	walks, err := randomWalks(sc2, 2, 4, cfg.Rounds, src2)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := trackTrial(cfg, sc2, walks, sc2.Network().Len()/10, false, src2)
	if err != nil {
		t.Fatal(err)
	}
	perRound2 := run2.errs()
	final2 := perRound2[len(perRound2)-1]
	if final2 < 0 || final2 > 12 {
		t.Errorf("fig8-style two-user final error %.2f outside plausible band [0, 12]; all rounds: %v",
			final2, perRound2)
	}
}

// TestQuickTraceSmoke exercises the trace-driven pipeline end-to-end.
func TestQuickTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trace smoke test skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Trials = 1
	cfg.Rounds = 4
	e, err := traceTrial(cfg, 1 /* perturbed grid */, 0.1, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 || e > 45 {
		t.Errorf("trace trial error %v outside plausible range", e)
	}
}
