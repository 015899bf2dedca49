package exp

import (
	"flag"
	"fmt"
	"math"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/shard"
)

// BindSearchFlags declares the tracker search flags on fs: -coarse,
// -coarsek, -coarsegrid, -robust, -liars, -shards and -halo. Call the
// returned function after fs.Parse: it rejects a negative -coarsek or
// -coarsegrid, a -liars outside [0, 1], an unknown -robust mode, a -shards
// that is not RxC and a negative or non-finite -halo, then writes
// cfg.Coarse, cfg.Robust, cfg.Liars and cfg.Shards. A nonzero -coarsek or
// -coarsegrid implies -coarse, and zero means the fingerprint package
// default. An empty -shards leaves cfg.Shards the zero (unsharded) grid.
// cfg.DBCache is left to the caller.
func BindSearchFlags(fs *flag.FlagSet) func(cfg *Config) error {
	coarse := fs.Bool("coarse", false, "shortlist tracking candidates through the coarse-to-fine fingerprint search")
	coarseK := fs.Int("coarsek", 0, "coarse shortlist size per user (0 = default 64; implies -coarse)")
	coarseG := fs.Int("coarsegrid", 0, "fingerprint grid resolution per axis (0 = default 24; implies -coarse)")
	robust := fs.String("robust", "", "robust-fit defense: off or both (leave-one-sensor-out flags, then Huber IRLS)")
	liars := fs.Float64("liars", 0, "fraction of Byzantine sensors (half inflate, a quarter deflate, a quarter replay)")
	shards := fs.String("shards", "", "track through a RxC tile grid (internal/shard), e.g. 2x2; empty = unsharded")
	halo := fs.Float64("halo", 0, "tile halo width for -shards: sensors within this margin report to both neighbors")
	return func(cfg *Config) error {
		if *coarseK < 0 {
			return fmt.Errorf("-coarsek %d is negative", *coarseK)
		}
		if *coarseG < 0 {
			return fmt.Errorf("-coarsegrid %d is negative", *coarseG)
		}
		if math.IsNaN(*liars) || *liars < 0 {
			return fmt.Errorf("-liars %v is not a fraction in [0, 1]", *liars)
		}
		mode, err := fit.ParseRobustMode(*robust)
		if err != nil {
			return err
		}
		if err := LiarMix(*liars).Validate(); err != nil {
			return err
		}
		if math.IsNaN(*halo) || math.IsInf(*halo, 0) || *halo < 0 {
			return fmt.Errorf("-halo %v is not a finite, non-negative width", *halo)
		}
		grid := shard.Grid{}
		if *shards != "" {
			if grid, err = shard.ParseGrid(*shards); err != nil {
				return err
			}
			grid.Halo = *halo
		}
		cfg.Coarse = fingerprint.CoarseConfig{}
		if *coarse || *coarseK > 0 || *coarseG > 0 {
			cfg.Coarse = fingerprint.CoarseConfig{Enabled: true, TopK: *coarseK, GridRes: *coarseG}.WithDefaults()
		}
		cfg.Robust = fit.RobustConfig{Mode: mode}
		cfg.Liars = *liars
		cfg.Shards = grid
		return nil
	}
}

// BindFaultFlags declares the degraded-sensing flags on fs: -dropout,
// -loss, -delay, -delayrounds and -stuck. Call the returned function after
// fs.Parse: it validates the values with fault.Config.Validate and writes
// cfg.Fault.
func BindFaultFlags(fs *flag.FlagSet) func(cfg *Config) error {
	dropout := fs.Float64("dropout", 0, "fraction of sniffed sensors that fail permanently")
	loss := fs.Float64("loss", 0, "per-round probability a report is lost")
	delay := fs.Float64("delay", 0, "per-round probability a report is delayed")
	delayRounds := fs.Int("delayrounds", 0, "rounds a delayed report is late (0 = default 2)")
	stuck := fs.Float64("stuck", 0, "fraction of sniffed sensors with frozen readings")
	return func(cfg *Config) error {
		f := fault.Config{
			DropoutFrac: *dropout, LossProb: *loss,
			DelayProb: *delay, DelayRounds: *delayRounds, StuckFrac: *stuck,
		}
		if err := f.Validate(); err != nil {
			return err
		}
		cfg.Fault = f
		return nil
	}
}

// CheckMin returns an error naming the first of fs's named int flags whose
// value is below lo. The commands check their effort flags with it, where
// 0 keeps the default and a negative count is an error, not the default.
func CheckMin(fs *flag.FlagSet, lo int, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < lo {
			return fmt.Errorf("-%s %d: want at least %d", name, v, lo)
		}
	}
	return nil
}
