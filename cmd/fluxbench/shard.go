package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/exp"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

// shardThroughputReport is the schema written by `fluxbench shardbench
// -json`: tracker-step latency and throughput for the same worlds tracked
// through a users × grid × workers sweep. The single-worker gain of finer
// grids is algorithmic, not parallel — each tile fits only its own sensors
// against its own users, and each tile reports only its owned users — and
// therefore shows up even at -workers 1 on a single-core machine.
type shardThroughputReport struct {
	TrackN     int                    `json:"track_n"`
	Samples    int                    `json:"sample_nodes"`
	Rounds     int                    `json:"rounds"`
	Repeats    int                    `json:"repeats"`
	Halo       float64                `json:"halo"`
	Seed       uint64                 `json:"seed"`
	Skew       float64                `json:"skew,omitempty"`
	ActiveSet  int                    `json:"active_set,omitempty"`
	Capacity   int                    `json:"tile_capacity,omitempty"`
	CoarseTopK int                    `json:"coarse_topk,omitempty"` // 0 = exact search
	CoarseGrid int                    `json:"coarse_grid,omitempty"`
	Liars      float64                `json:"liars,omitempty"`  // Byzantine sensor fraction, 0 = all honest
	Robust     string                 `json:"robust,omitempty"` // robust-fit defense mode, "" = off
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Entries    []shardThroughputEntry `json:"entries"`
}

type shardThroughputEntry struct {
	Users       int     `json:"users"`
	Grid        string  `json:"grid"`
	Tiles       int     `json:"tiles"`
	Workers     int     `json:"workers"`
	Steps       int     `json:"steps"`
	MeanMs      float64 `json:"mean_ms"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	UsersPerSec float64 `json:"users_per_sec"`
	Handoffs    int     `json:"handoffs"`
	Spills      int     `json:"spills,omitempty"`
	// ImbalanceMax/ImbalanceMean report the final round's tile-load shape
	// (largest owned-user count per tile vs users/tiles); both are
	// deterministic (see shard.Field.Imbalance).
	ImbalanceMax  int     `json:"imbalance_max"`
	ImbalanceMean float64 `json:"imbalance_mean"`
	// BytesPerUser is the live heap the sharded tracker retains per tracked
	// user after the measured rounds (post-GC delta against the
	// pre-construction heap) — the pooled-memory figure of the scale work.
	BytesPerUser float64 `json:"bytes_per_user"`
	Speedup      float64 `json:"speedup_vs_first"` // same users+workers, first grid's mean / this mean
}

// shardBenchOpts parameterizes one throughput sweep.
type shardBenchOpts struct {
	users     []int
	trackN    int
	samples   int
	rounds    int
	repeats   int
	halo      float64
	workers   []int
	seed      uint64
	grids     []shard.Grid
	skew      float64
	activeSet int
	capacity  int
	metrics   bool
	// search holds the Coarse, Robust and Liars settings written by
	// exp.BindSearchFlags; its other fields are unused.
	search exp.Config
}

// runShardBench is the `fluxbench shardbench` subcommand.
func runShardBench(args []string) error {
	fs := flag.NewFlagSet("fluxbench shardbench", flag.ContinueOnError)
	var (
		users     = fs.String("users", "4", "comma-separated tracked-population sizes to sweep")
		trackN    = fs.Int("trackn", 10000, "SMC prediction samples per user per round")
		samples   = fs.Int("samples", 90, "number of sniffed nodes")
		rounds    = fs.Int("rounds", 6, "observation rounds per repeat")
		repeats   = fs.Int("repeats", 2, "fresh-tracker repeats per entry")
		halo      = fs.Float64("halo", 2, "tile halo width shared by every sharded grid")
		workers   = fs.String("workers", "1", "comma-separated tracker worker counts (0 = GOMAXPROCS; 1 isolates the algorithmic gain)")
		seed      = fs.Uint64("seed", 1, "base seed for scenario, trajectories, and trackers")
		list      = fs.String("grids", "1x1,2x2", "comma-separated RxC tile grids")
		skew      = fs.Float64("skew", 0, "fraction of users clustered in one hot corner (0.9 = the 90/10 scale-out regime; 0 = quadrant orbits)")
		activeSet = fs.Int("activeset", 0, "per-tile cap on users searched per round (0 = search everyone; large populations need a cap)")
		capacity  = fs.Int("capacity", 0, "per-tile user capacity with deterministic admission and spills (0 = unlimited)")
		metrics   = fs.Bool("metrics", false, "collect shard.* and per-tile instruments; print the merged snapshot at exit")
		jsonOut   = fs.String("json", "", "write a JSON throughput report to this file")
	)
	applySearch := exp.BindSearchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Zero rounds or repeats would time nothing and compare empty estimate
	// lists, so the worker-invariance check would pass vacuously.
	if err := checkMin(1, intFlag{"trackn", *trackN}, intFlag{"samples", *samples},
		intFlag{"rounds", *rounds}, intFlag{"repeats", *repeats}); err != nil {
		return fmt.Errorf("shardbench: %w", err)
	}
	if err := checkMin(0, intFlag{"activeset", *activeSet}); err != nil {
		return fmt.Errorf("shardbench: %w", err)
	}
	var search exp.Config
	if err := applySearch(&search); err != nil {
		return err
	}
	grids, err := parseGridList(*list)
	if err != nil {
		return err
	}
	userCounts, err := parseIntList(*users, "shardbench: -users")
	if err != nil {
		return err
	}
	workerCounts, err := parseWorkerList(*workers)
	if err != nil {
		return err
	}
	opts := shardBenchOpts{
		users: userCounts, trackN: *trackN, samples: *samples, rounds: *rounds,
		repeats: *repeats, halo: *halo, workers: workerCounts, seed: *seed, grids: grids,
		skew: *skew, activeSet: *activeSet, capacity: *capacity,
		metrics: *metrics, search: search,
	}
	if opts.skew < 0 || opts.skew > 1 {
		return fmt.Errorf("shardbench: -skew %v outside [0, 1]", opts.skew)
	}
	report, err := runShardSweep(opts)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote shard throughput report to %s\n", *jsonOut)
	}
	return nil
}

// parseGridList parses "1x1,2x2,4x2" into tile grids.
func parseGridList(s string) ([]shard.Grid, error) {
	parts := strings.Split(s, ",")
	out := make([]shard.Grid, 0, len(parts))
	for _, p := range parts {
		g, err := shard.ParseGrid(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("shardbench: %w", err)
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shardbench: empty -grids list")
	}
	return out, nil
}

// parseWorkerList parses "1,2,4,8" into worker counts (0 = GOMAXPROCS).
func parseWorkerList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("shardbench: bad -workers entry %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIntList parses "100,1000,10000" into positive ints.
func parseIntList(s, what string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s entry %q is not a positive integer", what, p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s list is empty", what)
	}
	return out, nil
}

// shardBenchTrajectories lays the users out for the sweep. With skew zero
// they ride gentle linear orbits, one per field quadrant (cycling with a
// small offset past four), so every grid tracks identical motion and a 2×2
// split keeps roughly one user per tile. With skew s, the first s·users are
// instead packed into a slowly drifting cluster at the low corner — the hot
// tile of the 90/10 scale-out regime — and only the remainder orbit.
func shardBenchTrajectories(field geom.Rect, users int, skew float64) []mobility.Trajectory {
	w, h := field.Width(), field.Height()
	at := func(fx, fy, vx, vy float64) mobility.Linear {
		return mobility.Linear{
			Start: geom.Pt(field.Min.X+fx*w, field.Min.Y+fy*h),
			V:     geom.Vec{DX: vx, DY: vy},
		}
	}
	base := []mobility.Linear{
		at(0.23, 0.23, 0.017*w, 0.013*h),
		at(0.77, 0.27, -0.013*w, 0.017*h),
		at(0.27, 0.73, 0.017*w, -0.013*h),
		at(0.73, 0.77, -0.017*w, -0.017*h),
	}
	hot := int(skew * float64(users))
	out := make([]mobility.Trajectory, users)
	for i := range out {
		if i < hot {
			// Pack the hot cluster into a ~0.06-wide corner patch, creeping
			// toward the field center so seam handoffs still occur at fine
			// grids. Deterministic spread: position keyed by index only.
			fx := 0.03 + 0.06*float64(i%97)/97
			fy := 0.03 + 0.06*float64((i*31)%89)/89
			out[i] = at(fx, fy, 0.004*w, 0.004*h)
			continue
		}
		tr := base[i%len(base)]
		off := 0.023 * float64((i-hot)/len(base))
		tr.Start = geom.Pt(tr.Start.X+off*w, tr.Start.Y+off*h)
		out[i] = tr
	}
	return out
}

// runShardSweep measures Field.Step wall time for each (users, grid,
// workers) cell over one precomputed observation stream per population.
// Every cell replays the same stream from the same seed; only the tiling and
// the worker count differ. Cells of one grid therefore do identical
// numerical work, and the sweep fails if their final estimates differ — a
// cheap end-to-end check of the worker-invariance contract.
func runShardSweep(opts shardBenchOpts) (shardThroughputReport, error) {
	search := opts.search
	report := shardThroughputReport{
		TrackN: opts.trackN, Samples: opts.samples,
		Rounds: opts.rounds, Repeats: opts.repeats, Halo: opts.halo,
		Seed: opts.seed, Skew: opts.skew,
		ActiveSet: opts.activeSet, Capacity: opts.capacity,
		CoarseTopK: search.Coarse.TopK, CoarseGrid: search.Coarse.GridRes,
		Liars:      search.Liars,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if search.Robust.Mode != fit.RobustOff {
		report.Robust = search.Robust.Mode.String()
	}
	var met *obs.Metrics
	if opts.metrics {
		met = obs.New(0)
	}
	var cache *fingerprint.Cache
	if search.Coarse.Enabled {
		// Every cell and repeat rebuilds identical fingerprint databases; one
		// cache for the whole sweep builds each exactly once.
		cache = fingerprint.NewCache(0)
	}

	fmt.Printf("%8s %6s %6s %3s %7s %9s %9s %9s %11s %8s %7s %9s %10s %9s\n",
		"users", "grid", "tiles", "wk", "steps", "p50 ms", "p95 ms", "mean ms",
		"users/sec", "handoff", "spills", "imbal", "bytes/usr", "speedup")
	for _, users := range opts.users {
		// One world per population: scenario, trajectories, and the full
		// observation stream, shared by every (grid, workers) cell.
		src := rng.New(opts.seed)
		sc, err := core.NewScenario(core.ScenarioConfig{}, src)
		if err != nil {
			return shardThroughputReport{}, err
		}
		sniffer, err := sc.NewSnifferCount(opts.samples, src)
		if err != nil {
			return shardThroughputReport{}, err
		}
		trajs := shardBenchTrajectories(sc.Field(), users, opts.skew)
		stretches := make([]float64, users)
		starts := make([]geom.Point, users)
		for i := range stretches {
			stretches[i] = src.Uniform(1, 3)
			starts[i] = sc.Field().Clamp(trajs[i].At(0))
		}
		observations := make([][]float64, opts.rounds)
		us := make([]traffic.User, users)
		for r := range observations {
			t := float64(r + 1)
			for i, tr := range trajs {
				us[i] = traffic.User{Pos: sc.Field().Clamp(tr.At(t)), Stretch: stretches[i], Active: true}
			}
			o, err := sniffer.Observe(us, 0, src)
			if err != nil {
				return shardThroughputReport{}, err
			}
			observations[r] = o
		}
		trackerSeed := src.Uint64()
		// Tamper the stream once, outside the timed region: the cells measure
		// what the defense adds to the tracker step, not the attacker's cost.
		if search.Liars > 0 {
			adv, err := sniffer.NewAdversary(exp.LiarMix(search.Liars), src.Uint64())
			if err != nil {
				return shardThroughputReport{}, err
			}
			for r, o := range observations {
				if observations[r], err = adv.Apply(o); err != nil {
					return shardThroughputReport{}, err
				}
			}
		}

		firstMean := make(map[int]float64) // workers -> first grid's mean
		for _, g := range opts.grids {
			grid := g
			grid.Halo = opts.halo
			var ref []geom.Point // final estimates at the first worker count
			for wi, workers := range opts.workers {
				cfg := core.TrackerConfig{
					N: opts.trackN, M: 10, VMax: 5,
					ActiveSetLimit: opts.activeSet,
					Shards:         grid, InitialPositions: starts, Workers: workers,
					TileCapacity: opts.capacity,
					Search:       fit.Options{Robust: search.Robust},
					Coarse:       search.Coarse,
					DBCache:      cache,
					Metrics:      met,
				}
				if met != nil {
					cfg.PerTileMetrics = true
				}
				durations := make([]float64, 0, opts.rounds*opts.repeats)
				var final []geom.Point
				handoffs, spills := 0, 0
				var imbMax int
				var imbMean, bytesPerUser float64
				for rep := 0; rep < opts.repeats; rep++ {
					runtime.GC()
					var m0 runtime.MemStats
					runtime.ReadMemStats(&m0)
					field, err := sniffer.NewShardedTracker(users, cfg, trackerSeed)
					if err != nil {
						return shardThroughputReport{}, err
					}
					for r, o := range observations {
						t0 := time.Now()
						res, err := field.Step(float64(r+1), o)
						if err != nil {
							return shardThroughputReport{}, err
						}
						durations = append(durations, time.Since(t0).Seconds()*1e3)
						final = final[:0]
						for _, e := range res.Estimates {
							final = append(final, e.Mean)
						}
					}
					handoffs, spills = field.Handoffs(), field.Spills()
					imbMax, imbMean = field.Imbalance()
					runtime.GC()
					var m1 runtime.MemStats
					runtime.ReadMemStats(&m1)
					if m1.HeapAlloc > m0.HeapAlloc {
						bytesPerUser = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(users)
					}
					runtime.KeepAlive(field)
				}
				if wi == 0 {
					ref = final
				} else if !slices.Equal(final, ref) {
					return shardThroughputReport{}, fmt.Errorf("shardbench: users=%d grid=%s workers=%d diverged from workers=%d output",
						users, grid, workers, opts.workers[0])
				}
				sort.Float64s(durations)
				entry := shardThroughputEntry{
					Users:         users,
					Grid:          grid.String(),
					Tiles:         grid.Tiles(),
					Workers:       workers,
					Steps:         len(durations),
					MeanMs:        stats.Mean(durations),
					P50ms:         stats.Percentile(durations, 50),
					P95ms:         stats.Percentile(durations, 95),
					Handoffs:      handoffs,
					Spills:        spills,
					ImbalanceMax:  imbMax,
					ImbalanceMean: imbMean,
					BytesPerUser:  bytesPerUser,
				}
				if entry.MeanMs > 0 {
					entry.StepsPerSec = 1e3 / entry.MeanMs
					entry.UsersPerSec = float64(users) * 1e3 / entry.MeanMs
				}
				if _, ok := firstMean[workers]; !ok {
					firstMean[workers] = entry.MeanMs
				}
				if entry.MeanMs > 0 {
					entry.Speedup = firstMean[workers] / entry.MeanMs
				}
				report.Entries = append(report.Entries, entry)
				fmt.Printf("%8d %6s %6d %3d %7d %9.2f %9.2f %9.2f %11.1f %8d %7d %4d/%4.1f %10.0f %8.2fx\n",
					entry.Users, entry.Grid, entry.Tiles, entry.Workers, entry.Steps,
					entry.P50ms, entry.P95ms, entry.MeanMs, entry.UsersPerSec,
					entry.Handoffs, entry.Spills, entry.ImbalanceMax, entry.ImbalanceMean,
					entry.BytesPerUser, entry.Speedup)
			}
		}
	}
	if met != nil {
		fmt.Println("== metrics")
		fmt.Print(met.Snapshot().Format())
	}
	return report, nil
}
