package exp

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/shard"
)

// bindAll parses args through both flag binders into a fresh Config.
func bindAll(args ...string) (Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	applySearch := BindSearchFlags(fs)
	applyFault := BindFaultFlags(fs)
	var cfg Config
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if err := applySearch(&cfg); err != nil {
		return cfg, err
	}
	return cfg, applyFault(&cfg)
}

func TestBindFlagsApply(t *testing.T) {
	cfg, err := bindAll()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Coarse.Enabled || cfg.Robust.Mode != fit.RobustOff || cfg.Liars != 0 || cfg.Fault.Enabled() {
		t.Errorf("no flags must leave the zero config: %+v", cfg)
	}

	// -coarsek alone implies -coarse and keeps the default grid.
	cfg, err = bindAll("-coarsek", "16", "-liars", "0.1", "-robust", "both",
		"-dropout", "0.2", "-delay", "0.1", "-delayrounds", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Coarse.Enabled || cfg.Coarse.TopK != 16 || cfg.Coarse.GridRes != 24 {
		t.Errorf("coarse config = %+v, want enabled TopK 16 grid 24", cfg.Coarse)
	}
	if cfg.Robust.Mode != fit.RobustBoth {
		t.Errorf("robust mode = %v, want both", cfg.Robust.Mode)
	}
	if cfg.Liars != 0.1 {
		t.Errorf("liars = %v, want 0.1", cfg.Liars)
	}
	if cfg.Fault.DropoutFrac != 0.2 || cfg.Fault.DelayProb != 0.1 || cfg.Fault.DelayRounds != 3 {
		t.Errorf("fault config = %+v", cfg.Fault)
	}
}

// TestBindSearchFlagsShards pins -shards/-halo: a grid and its halo land in
// cfg.Shards, an empty -shards keeps the unsharded zero grid, and a grid
// that is not RxC or a negative or non-finite halo fails when the flags
// are applied, before any trial runs.
func TestBindSearchFlagsShards(t *testing.T) {
	cfg, err := bindAll("-shards", "2x3", "-halo", "1.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := (shard.Grid{Rows: 2, Cols: 3, Halo: 1.5}); cfg.Shards != want {
		t.Errorf("shards = %+v, want %+v", cfg.Shards, want)
	}
	cfg, err = bindAll("-halo", "2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != (shard.Grid{}) {
		t.Errorf("-halo without -shards: shards = %+v, want the zero grid", cfg.Shards)
	}
	for _, bad := range [][]string{
		{"-shards", "2y2"},
		{"-shards", "0x2"},
		{"-shards", "x"},
		{"-shards", "2x2", "-halo", "-1"},
		{"-shards", "2x2", "-halo", "NaN"},
		{"-shards", "2x2", "-halo", "Inf"},
		{"-halo", "-0.5"},
	} {
		if _, err := bindAll(bad...); err == nil {
			t.Errorf("%v must error", bad)
		}
	}
}

// TestOwnTrackersRefuseIgnoredFlags: the four experiments that build their
// own trackers refuse a fault, liar or shard setting before running, and
// name the flags they would ignore.
func TestOwnTrackersRefuseIgnoredFlags(t *testing.T) {
	cfg := goldenConfig()
	cfg.Fault = fault.Config{LossProb: 0.1}
	cfg.Liars = 0.1
	cfg.Shards = shard.Grid{Rows: 2, Cols: 2}
	for _, id := range []string{"fig10a", "fig10b", "baseline-ekf", "ablation-heading"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(cfg)
		if !errors.Is(err, ErrIgnoredFlags) || !strings.Contains(err.Error(), "-loss, -liars, -shards") {
			t.Errorf("%s: got %v, want ErrIgnoredFlags naming -loss, -liars, -shards", id, err)
		}
	}
}
