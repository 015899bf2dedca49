package main

import (
	"encoding/json"
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

func TestRunShardBenchSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end shard sweep skipped in -short mode")
	}
	report, raw := runShardBenchReport(t,
		"-users", "3,6", "-trackn", "60", "-samples", "40",
		"-rounds", "2", "-repeats", "1", "-grids", "1x1,2x2",
		"-skew", "0.5", "-activeset", "4")
	if report.Skew != 0.5 || report.ActiveSet != 4 {
		t.Errorf("report header wrong: %+v", report)
	}
	if len(report.Entries) != 4 { // 2 populations x 2 grids x 1 worker count
		t.Fatalf("got %d entries, want 4: %+v", len(report.Entries), report.Entries)
	}
	for _, e := range report.Entries {
		if e.Steps != 2 || e.ImbalanceMean <= 0 || e.Speedup <= 0 {
			t.Errorf("entry malformed: %+v", e)
		}
	}
	// The first grid of each (users, workers) pair anchors its own speedup.
	if report.Entries[0].Speedup != 1 || report.Entries[2].Speedup != 1 {
		t.Errorf("first-grid speedup anchors wrong: %+v", report.Entries)
	}
	// CI greps this key out of the raw JSON; keep it stable.
	if !strings.Contains(string(raw), `"speedup_vs_first"`) {
		t.Error("report lost the speedup_vs_first key")
	}
	if err := run([]string{"shardbench", "-users", "0"}); err == nil {
		t.Error("non-positive -users must error")
	}
	if err := run([]string{"shardbench", "-skew", "1.5"}); err == nil {
		t.Error("out-of-range -skew must error")
	}
	if err := run([]string{"shardbench", "-workers", "1,x"}); err == nil {
		t.Error("bad -workers list must error")
	}

	// One grid, several worker counts: the tracker-latency shape. The coarse
	// shortlist settings land in the report header, and each worker count
	// gets its own entry.
	report, _ = runShardBenchReport(t,
		"-users", "2", "-trackn", "60", "-samples", "40", "-rounds", "2",
		"-repeats", "1", "-grids", "1x1", "-workers", "1,2",
		"-coarse", "-coarsek", "16", "-coarsegrid", "8")
	if report.CoarseTopK != 16 || report.CoarseGrid != 8 {
		t.Errorf("coarse fields not recorded: %+v", report)
	}
	if len(report.Entries) != 2 || report.Entries[0].Workers != 1 || report.Entries[1].Workers != 2 ||
		report.Entries[0].Steps != 2 {
		t.Errorf("worker entries wrong: %+v", report.Entries)
	}

	// A tampered stream through the robust fit must still give the same final
	// estimates at every worker count, or the sweep errors.
	report, _ = runShardBenchReport(t,
		"-users", "3", "-trackn", "60", "-samples", "40", "-rounds", "2",
		"-repeats", "1", "-grids", "1x1,2x2", "-workers", "1,2",
		"-liars", "0.1", "-robust", "both")
	if report.Liars != 0.1 || report.Robust != "both" {
		t.Errorf("search fields not recorded: %+v", report)
	}
	if len(report.Entries) != 4 {
		t.Errorf("got %d entries, want 4: %+v", len(report.Entries), report.Entries)
	}
}

// runShardBenchReport runs `fluxbench shardbench args... -json` and returns
// the decoded report and its raw bytes.
func runShardBenchReport(t *testing.T, args ...string) (shardThroughputReport, []byte) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "shard.json")
	if err := run(append(append([]string{"shardbench"}, args...), "-json", out)); err != nil {
		t.Fatalf("shardbench %v failed: %v", args, err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report shardThroughputReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatalf("shard report is not valid JSON: %v", err)
	}
	return report, buf
}

// TestRunRejectsBadTrackerFlags pins that out-of-range search, fault and
// effort flags fail the run instead of silently falling back to defaults (a
// negative -liars used to run honest, a negative -coarsek the default
// shortlist, a negative -trials the default trial count), that -robust
// takes only off and both, and that shardbench refuses a sweep that would
// time no step.
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
	for _, bad := range search {
		if err := run(append([]string{"shardbench", "-trackn", "60", "-rounds", "1", "-repeats", "1"}, bad...)); err == nil {
			t.Errorf("fluxbench shardbench %v must error", bad)
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
	sweep := [][]string{
		{"-rounds", "0"}, {"-repeats", "0"}, {"-trackn", "0"}, {"-trackn", "-50"},
		{"-samples", "0"}, {"-activeset", "-1"},
	}
	for _, bad := range sweep {
		err := run(append([]string{"shardbench", "-trackn", "60", "-rounds", "1", "-repeats", "1"}, bad...))
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("fluxbench shardbench %v: got %v, want an error naming %s", bad, err, bad[0])
		}
	}
}
