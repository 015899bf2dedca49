package main

import (
	"strings"
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-users", "0"}); err == nil {
		t.Error("zero users must error")
	}
	if err := run([]string{"-deploy", "hexagonal"}); err == nil {
		t.Error("unknown deployment must error")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag must error")
	}
}

// TestRunRejectsBadTrackerFlags pins that out-of-range search, fault and
// effort flags fail the run instead of silently falling back to defaults (a
// negative -coarsek used to run the exact search), and that -robust takes
// only off and both.
func TestRunRejectsBadTrackerFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-coarsek", "-3"},
		{"-coarsegrid", "-1"},
		{"-liars", "-0.1"},
		{"-liars", "NaN"},
		{"-robust", "sometimes"},
		{"-robust", "huber"},
		{"-robust", "loso"},
		{"-shards", "2y2"},
		{"-halo", "-1"},
		{"-loss", "1.5"},
		{"-delayrounds", "-1"},
		{"-samples", "-7"},
		{"-trackn", "-5"},
		{"-rounds", "-1"},
		{"-workers", "-2"},
	} {
		args := append([]string{"-users", "1", "-samples", "100", "-nodes", "400"}, bad...)
		if err := run(args); err == nil {
			t.Errorf("fluxsim %v must error", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario skipped in -short mode")
	}
	if err := run([]string{"-users", "1", "-samples", "500", "-nodes", "400"}); err != nil {
		t.Fatalf("fluxsim run failed: %v", err)
	}
	if err := run([]string{
		"-users", "1", "-samples", "500", "-nodes", "400",
		"-coarse", "-coarsek", "64", "-coarsegrid", "16",
	}); err != nil {
		t.Fatalf("fluxsim coarse run failed: %v", err)
	}
	if err := run([]string{
		"-users", "1", "-samples", "500", "-nodes", "400",
		"-delay", "0.3", "-delayrounds", "1",
	}); err != nil {
		t.Fatalf("fluxsim delayed-sniff run failed: %v", err)
	}
}

func TestMatchErrorsHelper(t *testing.T) {
	users := []traffic.User{
		{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(10, 10)},
	}
	errs := matchErrors([]geom.Point{geom.Pt(9, 9), geom.Pt(1, 1)}, users)
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2", len(errs))
	}
	for _, e := range errs {
		if e > 1.5 {
			t.Errorf("matching error %v too large", e)
		}
	}
}

func TestRenderFluxShape(t *testing.T) {
	// renderFlux must yield h lines of w runes with user markers placed.
	sc := mustScenario(t)
	users := []traffic.User{{Pos: geom.Pt(15, 15), Stretch: 2, Active: true}}
	flux, err := sc.GroundFlux(users)
	if err != nil {
		t.Fatal(err)
	}
	out := renderFlux(sc, flux, users)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 30 {
		t.Fatalf("rendered %d lines, want 30", len(lines))
	}
	for i, line := range lines {
		if len(line) != 60 {
			t.Fatalf("line %d has width %d, want 60", i, len(line))
		}
	}
	if !strings.Contains(out, "X") {
		t.Error("user marker X missing from rendering")
	}
}

// mustScenario builds a small scenario for rendering tests.
func mustScenario(t *testing.T) *core.Scenario {
	t.Helper()
	sc, err := core.NewScenario(core.ScenarioConfig{Nodes: 400}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
