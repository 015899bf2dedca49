package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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
	for _, sub := range []string{"latency", "serve", "nope"} {
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

func TestRunJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{
		"-quick", "-trials", "1", "-workers", "2",
		"-exp", "ablation-smoothing", "-json", out,
	}); err != nil {
		t.Fatalf("json report run failed: %v", err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Config != "quick" || report.Trials != 1 || report.Workers != 2 {
		t.Errorf("report config fields wrong: %+v", report)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "ablation-smoothing" {
		t.Fatalf("report experiments wrong: %+v", report.Experiments)
	}
	e := report.Experiments[0]
	if len(e.Rows) == 0 || len(e.Columns) == 0 || e.Seconds < 0 {
		t.Errorf("experiment entry incomplete: %+v", e)
	}
	if report.TotalSeconds < e.Seconds {
		t.Errorf("total %v < experiment time %v", report.TotalSeconds, e.Seconds)
	}
}

func writeReport(t *testing.T, path string, r benchReport) {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareReports(t *testing.T) {
	oldRep := benchReport{
		Config: "quick", Trials: 1, Workers: 1,
		Experiments: []benchExperiment{
			{ID: "fig5", Seconds: 10},
			{ID: "fig7", Seconds: 20},
			{ID: "gone", Seconds: 5},
		},
	}
	newRep := benchReport{
		Config: "quick", Trials: 1, Workers: 1,
		Experiments: []benchExperiment{
			{ID: "fig5", Seconds: 2},
			{ID: "fig7", Seconds: 4},
			{ID: "fresh", Seconds: 1},
		},
	}
	cmp := compareReports(oldRep, newRep, "a.json", "b.json")
	out := cmp.text
	for _, want := range []string{
		"fig5", "5.00x", "fig7", "total (matched)",
		"gone", "(old only)", "fresh", "(new only)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "warning") {
		t.Errorf("matching configs must not warn:\n%s", out)
	}
	// Matched totals exclude the one-sided experiments.
	if cmp.oldTotal != 30 || cmp.newTotal != 6 || cmp.matched != 2 {
		t.Errorf("matched totals = %v, %v over %d, want 30, 6 over 2", cmp.oldTotal, cmp.newTotal, cmp.matched)
	}
	// Mismatched configurations must warn and name each differing setting;
	// host facts are not settings.
	newRep.Trials = 9
	newRep.Robust = "both"
	newRep.GOMAXPROCS, newRep.GoVersion = 64, "go9"
	cmp = compareReports(oldRep, newRep, "a", "b")
	if !strings.Contains(cmp.text, "warning") {
		t.Errorf("mismatched configs must warn:\n%s", cmp.text)
	}
	if want := []string{"trials 1 vs 9", `robust "" vs "both"`}; !reflect.DeepEqual(cmp.settingsDiff, want) {
		t.Errorf("settings diff = %q, want %q", cmp.settingsDiff, want)
	}
}

func TestRunCompareSubcommand(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	rep := benchReport{Config: "quick", Experiments: []benchExperiment{{ID: "fig5", Seconds: 3}}}
	writeReport(t, oldPath, rep)
	rep.Experiments[0].Seconds = 1
	writeReport(t, newPath, rep)
	if err := run([]string{"compare", oldPath, newPath}); err != nil {
		t.Fatalf("compare subcommand failed: %v", err)
	}
	if err := run([]string{"compare", oldPath}); err == nil {
		t.Error("compare with one report must error")
	}
	if err := run([]string{"compare", oldPath, filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("compare with a missing report must error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare", oldPath, bad}); err == nil {
		t.Error("compare with malformed JSON must error")
	}
	// -maxregress: the new run (1s vs 3s old) is a speedup, so generous and
	// tight limits both pass; swapping the operands makes a 3x slowdown that
	// must fail a 2x limit but pass a 4x one.
	if err := run([]string{"compare", "-maxregress", "1.5", oldPath, newPath}); err != nil {
		t.Errorf("faster run must pass -maxregress: %v", err)
	}
	if err := run([]string{"compare", "-maxregress", "2", newPath, oldPath}); err == nil {
		t.Error("3x slowdown must fail -maxregress 2")
	}
	if err := run([]string{"compare", "-maxregress", "4", newPath, oldPath}); err != nil {
		t.Errorf("3x slowdown must pass -maxregress 4: %v", err)
	}
	for _, bad := range []string{"-1", "NaN", "+Inf"} {
		if err := run([]string{"compare", "-maxregress", bad, oldPath, newPath}); err == nil {
			t.Errorf("-maxregress %s must error", bad)
		}
	}

	// The gate cannot pass vacuously: a run sharing no experiment id with
	// the baseline, or one with different run settings, is an error under
	// -maxregress and only a report without it.
	disjoint := filepath.Join(dir, "disjoint.json")
	writeReport(t, disjoint, benchReport{Config: "quick", Experiments: []benchExperiment{{ID: "fig7", Seconds: 1}}})
	if err := run([]string{"compare", "-maxregress", "1.5", oldPath, disjoint}); err == nil {
		t.Error("a run matching no baseline experiment must fail -maxregress")
	}
	oneWorker := filepath.Join(dir, "workers1.json")
	writeReport(t, oneWorker, benchReport{Config: "quick", Workers: 1, Experiments: []benchExperiment{{ID: "fig5", Seconds: 3}}})
	fourWorkers := filepath.Join(dir, "workers4.json")
	writeReport(t, fourWorkers, benchReport{Config: "quick", Workers: 4, Experiments: []benchExperiment{{ID: "fig5", Seconds: 1}}})
	if err := run([]string{"compare", "-maxregress", "1.5", oneWorker, fourWorkers}); err == nil {
		t.Error("workers 1 vs 4 must fail -maxregress")
	}
	hostOnly := filepath.Join(dir, "host.json")
	writeReport(t, hostOnly, benchReport{Config: "quick", GOMAXPROCS: 8, GoVersion: "go1.99",
		Experiments: []benchExperiment{{ID: "fig5", Seconds: 1}}})
	if err := run([]string{"compare", "-maxregress", "1.5", oldPath, hostOnly}); err != nil {
		t.Errorf("host facts must not fail -maxregress: %v", err)
	}
	for _, p := range []string{disjoint, fourWorkers} {
		if err := run([]string{"compare", oneWorker, p}); err != nil {
			t.Errorf("compare without -maxregress must only report: %v", err)
		}
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

// TestRunRejectsBadTrackerFlags pins that out-of-range search and fault
// flags fail the run instead of silently falling back to defaults (a
// negative -liars used to run honest, a negative -coarsek the default
// shortlist).
func TestRunRejectsBadTrackerFlags(t *testing.T) {
	search := [][]string{
		{"-liars", "-0.5"},
		{"-liars", "NaN"},
		{"-liars", "1.5"},
		{"-coarse", "-coarsek", "-5"},
		{"-coarsegrid", "-1"},
		{"-robust", "sometimes"},
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
}
