package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluxtrack/internal/exp"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag must error")
	}
	for _, sub := range []string{"latency", "serve", "compare", "nope"} {
		if err := run([]string{"-quick", sub}); err == nil {
			t.Errorf("unknown subcommand %q must error", sub)
		}
	}
	// A script written for the retired tile-sweep subcommand must fail
	// before it runs the suite at full effort.
	err := run([]string{"shardbench", "-users", "50", "-grids", "8x8"})
	if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("shardbench: got %v, want an unknown-subcommand error", err)
	}
}

func TestRenderCharts(t *testing.T) {
	table := exp.Table{
		ID:      "demo",
		Columns: []string{"cell", "err", "note"},
		Rows: [][]string{
			{"a", "1.5", "x"},
			{"b", "3.0", "y"},
		},
	}
	out := renderCharts(table)
	if !strings.Contains(out, "err:") {
		t.Errorf("numeric column not charted: %q", out)
	}
	if strings.Contains(out, "note:") {
		t.Errorf("non-numeric column charted: %q", out)
	}
	if !strings.Contains(out, "####") {
		t.Errorf("no bars rendered: %q", out)
	}
	// Percent-suffixed labels in data cells parse as numbers.
	pct := exp.Table{
		Columns: []string{"pct", "v"},
		Rows:    [][]string{{"40%", "10%"}, {"20%", "20%"}},
	}
	if out := renderCharts(pct); !strings.Contains(out, "v:") {
		t.Errorf("percent cells not parsed: %q", out)
	}
	// Degenerate tables chart nothing.
	if out := renderCharts(exp.Table{Columns: []string{"only"}}); out != "" {
		t.Errorf("single-column table charted: %q", out)
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	if err := run([]string{"-quick", "-trials", "1", "-exp", "ablation-search"}); err != nil {
		t.Fatalf("quick single experiment failed: %v", err)
	}
}

func TestRunWithProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := run([]string{
		"-quick", "-trials", "1", "-exp", "ablation-search",
		"-cpuprofile", cpu, "-memprofile", mem,
	}); err != nil {
		t.Fatalf("profiled run failed: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestRunRejectsBadTrackerFlags pins that out-of-range search, fault and
// effort flags fail the run instead of silently falling back to defaults (a
// negative -liars used to run honest, a negative -coarsek the default
// shortlist, a negative -trials the default trial count), and that -robust
// takes only off and both.
func TestRunRejectsBadTrackerFlags(t *testing.T) {
	search := [][]string{
		{"-liars", "-0.5"},
		{"-liars", "NaN"},
		{"-liars", "1.5"},
		{"-coarse", "-coarsek", "-5"},
		{"-coarsegrid", "-1"},
		{"-robust", "sometimes"},
		{"-robust", "huber"},
		{"-robust", "loso"},
	}
	faults := [][]string{{"-dropout", "-0.1"}, {"-delayrounds", "-1"}}
	for _, bad := range append(search, faults...) {
		if err := run(append([]string{"-quick", "-trials", "1", "-exp", "ablation-search"}, bad...)); err == nil {
			t.Errorf("fluxbench %v must error", bad)
		}
	}

	// Effort flags: the error names the flag.
	effort := [][]string{
		{"-trials", "-3"}, {"-samples", "-5"}, {"-trackn", "-50"},
		{"-rounds", "-1"}, {"-workers", "-2"}, {"-tracecap", "-1"},
	}
	for _, bad := range effort {
		err := run(append([]string{"-quick", "-exp", "fig4"}, bad...))
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("fluxbench %v: got %v, want an error naming %s", bad, err, bad[0])
		}
	}
}
