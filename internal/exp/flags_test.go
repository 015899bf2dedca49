package exp

import (
	"flag"
	"io"
	"testing"

	"fluxtrack/internal/fit"
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
