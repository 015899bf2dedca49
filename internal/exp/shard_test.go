package exp

import (
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/shard"
)

// TestShardOneByOneMatchesUnsharded pins the experiment-level half of the
// 1×1 identity contract: a tracking experiment run through the sharded
// coordinator on a 1×1 grid must render the exact table of the plain
// tracker, clean and under fault injection (the masked step path). The
// tracker-level half lives in internal/shard.
func TestShardOneByOneMatchesUnsharded(t *testing.T) {
	faults := fault.Config{DropoutFrac: 0.15, LossProb: 0.10, DelayProb: 0.20, DelayRounds: 1}
	for _, tc := range []struct {
		name  string
		fault fault.Config
	}{
		{"clean", fault.Config{}},
		{"degraded", faults},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig()
			cfg.Fault = tc.fault
			plain, err := Fig7(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = shard.Grid{Rows: 1, Cols: 1}
			tiled, err := Fig7(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Render() != tiled.Render() {
				t.Errorf("1x1 sharded fig7 differs from unsharded:\n--- plain\n%s--- 1x1\n%s",
					plain.Render(), tiled.Render())
			}
		})
	}
}

// TestBaselineSharesDBCache: the baselines' tracker gets the run's
// fingerprint cache, so a second identical run reuses the first run's
// databases and renders the same table.
func TestBaselineSharesDBCache(t *testing.T) {
	cfg := goldenConfig()
	cfg.Coarse = fingerprint.CoarseConfig{Enabled: true, TopK: 24, GridRes: 10}
	cfg.DBCache = fingerprint.NewCache(0)
	cfg.Metrics = obs.New(0)
	first, err := BaselineEKF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := BaselineEKF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits := cfg.Metrics.Counter("fingerprint.cache.hits").Value(); hits == 0 {
		t.Error("second run missed the cache: fingerprint.cache.hits = 0")
	}
	if first.Render() != second.Render() {
		t.Errorf("cached rerun changed the table:\n--- first\n%s--- second\n%s", first.Render(), second.Render())
	}
}

// TestShardDBCacheInvariance: sharing a fingerprint cache across trials and
// tiles must never change a rendered table — caching removes rebuilds, not
// bytes. Runs coarse (the only mode that builds databases) over a sharded
// grid so tiles of one trial share the cache too.
func TestShardDBCacheInvariance(t *testing.T) {
	cfg := goldenConfig()
	cfg.Coarse = fingerprint.CoarseConfig{Enabled: true, TopK: 24, GridRes: 10}
	cfg.Shards = shard.Grid{Rows: 2, Cols: 2, Halo: 2}
	uncached, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DBCache = fingerprint.NewCache(0)
	cached, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uncached.Render() != cached.Render() {
		t.Errorf("DB cache changed fig7:\n--- uncached\n%s--- cached\n%s",
			uncached.Render(), cached.Render())
	}
}
