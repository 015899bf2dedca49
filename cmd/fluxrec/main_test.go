package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluxtrack/internal/geom"
)

func TestRunUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args must error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand must error")
	}
}

func TestRecordValidation(t *testing.T) {
	if err := record([]string{}); err == nil {
		t.Error("missing -out must error")
	}
	if err := record([]string{"-out", "/tmp/x.jsonl", "-users", "0"}); err == nil {
		t.Error("zero users must error")
	}
	if err := record([]string{"-bogus"}); err == nil {
		t.Error("bad flag must error")
	}
}

func TestAttackValidation(t *testing.T) {
	if err := attack([]string{}); err == nil {
		t.Error("missing -in must error")
	}
	if err := attack([]string{"-in", "/nonexistent/file"}); err == nil {
		t.Error("missing file must error")
	}
	// A negative effort count is an error naming the flag, not the default.
	for _, flag := range []string{"-n", "-m"} {
		err := attack([]string{"-in", "/nonexistent/file", flag, "-5"})
		if err == nil || !strings.Contains(err.Error(), flag+" -5") {
			t.Errorf("attack %s -5: got %v, want an error naming %s", flag, err, flag)
		}
	}
}

func TestRecordAttackEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end record/attack skipped in -short mode")
	}
	dir := t.TempDir()
	obs := filepath.Join(dir, "obs.jsonl")
	truth := filepath.Join(dir, "truth.jsonl")

	if err := record([]string{
		"-out", obs, "-truth", truth,
		"-users", "1", "-rounds", "6", "-pct", "10", "-seed", "3",
	}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if info, err := os.Stat(obs); err != nil || info.Size() == 0 {
		t.Fatalf("observation file missing or empty: %v", err)
	}
	if err := attack([]string{
		"-in", obs, "-truth", truth, "-users", "1", "-n", "200",
	}); err != nil {
		t.Fatalf("attack: %v", err)
	}
}

func TestLoadTruthMissing(t *testing.T) {
	if m, err := loadTruth(""); err != nil || m != nil {
		t.Errorf("empty path: %v, %v", m, err)
	}
	if _, err := loadTruth("/nonexistent/truth.jsonl"); err == nil {
		t.Error("missing truth file must error")
	}
}

func TestMatchedMean(t *testing.T) {
	ests := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	truths := []geom.Point{geom.Pt(9, 9), geom.Pt(1, 1)}
	got := matchedMean(ests, truths)
	want := (geom.Pt(0, 0).Dist(geom.Pt(1, 1)) + geom.Pt(10, 10).Dist(geom.Pt(9, 9))) / 2
	if got != want {
		t.Errorf("matchedMean = %v, want %v", got, want)
	}
	if matchedMean(ests, nil) != 0 {
		t.Error("no truths must give 0")
	}
}
