// Command fluxbench regenerates the paper's evaluation tables. By default
// it runs every experiment at full (paper-faithful) effort; use -quick for
// a fast pass and -exp to select a single experiment.
//
// Usage:
//
//	fluxbench                 # run everything, full effort
//	fluxbench -quick          # run everything, reduced effort
//	fluxbench -exp fig6a      # run one experiment
//	fluxbench -list           # list experiment ids
//	fluxbench -trials 5       # override the trial count
//	fluxbench -workers 4      # bound the trial-level parallelism
//
// Each experiment's table is followed by its wall time. Negative effort
// flags (-trials, -samples, -trackn, -rounds, -workers, -tracecap) are
// errors; 0 keeps the configuration's default.
//
// Degraded sensing (see internal/fault; figRobust sweeps these built-in):
//
//	fluxbench -exp fig7 -dropout 0.2            # 20% of sensors fail permanently
//	fluxbench -exp fig8a -loss 0.3 -delay 0.2   # lossy + delayed reports
//
// Byzantine sensors and the robust defense (see fault.Adversary and
// fit.RobustConfig; figByzantine sweeps 0-40% liars built-in). -robust
// takes off or both; both flags sensors by leave-one-sensor-out residuals,
// then runs Huber IRLS:
//
//	fluxbench -exp fig7 -liars 0.1               # 10% of sensors lie (inflate/deflate/replay mix)
//	fluxbench -exp fig7 -liars 0.1 -robust both  # same attack, defended fit
//	fluxbench -quick -robust both                # the defense on clean data (cost check)
//
// Observability (see internal/obs; enabling it never changes a table):
//
//	fluxbench -quick -metrics                    # print merged work counters + latency histograms
//	fluxbench -quick -metricsout metrics.json    # write the counter snapshot as JSON
//	fluxbench -quick -exp fig7 -trace out.jsonl  # one JSON span per tracker round
//
// Coarse-to-fine search (see internal/fingerprint; shortlists candidates
// before the exact NLS ranking — faster, slightly approximate unless
// -coarsek covers every candidate):
//
//	fluxbench -quick -coarse                     # default shortlist (TopK 64, grid 24)
//	fluxbench -quick -coarse -coarsek 32         # tighter shortlist
//	fluxbench -quick -coarse -coarsegrid 48      # finer fingerprint grid
//
// Profiling:
//
//	fluxbench -quick -cpuprofile cpu.out    # pprof CPU profile of the run
//	fluxbench -quick -memprofile mem.out    # heap profile at exit
//
// Field sharding (see internal/shard; tiles the field into an RxC grid of
// independent trackers with cross-tile handoff — a 1x1 grid is byte-identical
// to the unsharded tracker):
//
//	fluxbench -quick -shards 2x2 -halo 2         # run the suite through a 2x2 tile grid
//
// The degradation flags (-dropout, -loss, -delay, -stuck, -liars and
// -shards) reach only the experiments that track through the shared trial
// loop. fig10a, fig10b, baseline-ekf and ablation-heading build their own
// trackers, so with such a flag a single -exp run of one of them fails
// (exp.ErrIgnoredFlags), and a full run skips each of them with one line on
// stderr.
//
// The work the tile split and the active-set cap save is pinned as NNLS
// solve and iteration counts by internal/shard's TestShardWorkReduction;
// their step time is perfbench's field-hotspot workload.
//
// Serving latency, per-layer timings, the end-to-end benchmark and the
// quick suite's wall-time baseline (exp.suite_s of a traced track-exact
// run) live in the separate perfbench module (perfbench/README.md).
//
// Tables are byte-identical for every -workers value (see internal/exp),
// and so is tracker output (see internal/smc): -workers trades wall time
// only, never results. The same holds with -metrics and -trace on: the
// instruments are write-only, and the counter totals themselves are
// worker-count-invariant (only the latency histograms vary run to run).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fluxtrack/internal/exp"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluxbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fluxbench", flag.ContinueOnError)
	var (
		quick   = fs.Bool("quick", false, "use the reduced-effort configuration")
		expID   = fs.String("exp", "", "run only the experiment with this id")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		trials  = fs.Int("trials", 0, "override the trial count")
		seed    = fs.Uint64("seed", 0, "override the base seed")
		samples = fs.Int("samples", 0, "override the localization candidate count")
		trackN  = fs.Int("trackn", 0, "override the SMC prediction sample count")
		rounds  = fs.Int("rounds", 0, "override the tracking round count")
		workers = fs.Int("workers", 0, "worker count for trials, NLS search, and tracker steps (0 = one per CPU, 1 = sequential)")
		chart   = fs.Bool("chart", false, "render an ASCII bar chart per table column")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		metrics = fs.Bool("metrics", false, "collect work counters and latency histograms; print the merged snapshot at exit")
		metOut  = fs.String("metricsout", "", "write the metrics snapshot as JSON to this file (implies collection)")
		trOut   = fs.String("trace", "", "write one JSON span per tracker round to this file (JSON lines)")
		trCap   = fs.Int("tracecap", 0, "trace ring capacity in spans; oldest spans are overwritten (0 = default 4096)")
	)
	applySearch := exp.BindSearchFlags(fs)
	applyFault := exp.BindFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// A stray argument, such as a misspelled subcommand, would otherwise
		// end flag parsing and run the whole suite at full effort.
		return fmt.Errorf("unknown subcommand or argument %q (fluxbench takes flags only)", fs.Arg(0))
	}
	// 0 keeps the configuration's default; a negative count is an error.
	if err := exp.CheckMin(fs, 0, "trials", "samples", "trackn", "rounds", "workers", "tracecap"); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fluxbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fluxbench: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Note)
		}
		return nil
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *trackN > 0 {
		cfg.TrackN = *trackN
	}
	if *rounds > 0 {
		cfg.Rounds = *rounds
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if err := applyFault(&cfg); err != nil {
		return err
	}
	if err := applySearch(&cfg); err != nil {
		return err
	}
	if cfg.Coarse.Enabled {
		// One cache for the whole run: trials of a cell and tiles of a
		// sharded field share identical (model, bounds, sensors) layouts only
		// within a trial, but repeated cells re-derive identical worlds from
		// the same seeds, so memoizing across the run removes those rebuilds
		// without changing any table (see fingerprint.Cache).
		cfg.DBCache = fingerprint.NewCache(0)
	}
	var met *obs.Metrics
	if *metrics || *metOut != "" {
		met = obs.New(0)
		cfg.Metrics = met
	}
	var trace *obs.Trace
	if *trOut != "" {
		trace = obs.NewTrace(*trCap)
		cfg.Trace = trace
	}

	experiments := exp.All()
	if *expID != "" {
		e, err := exp.ByID(*expID)
		if err != nil {
			return err
		}
		experiments = []exp.Experiment{e}
	}

	for _, e := range experiments {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			if len(experiments) > 1 && errors.Is(err, exp.ErrIgnoredFlags) {
				// A full run skips the tables that would ignore a flag.
				fmt.Fprintf(os.Stderr, "fluxbench: %s skipped: %v\n", e.ID, err)
				continue
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		secs := time.Since(start).Seconds()
		fmt.Print(table.Render())
		if *chart {
			fmt.Print(renderCharts(table))
		}
		fmt.Printf("   (%s in %.1fs)\n\n", e.ID, secs)
	}

	if met != nil {
		snap := met.Snapshot()
		if *metrics {
			fmt.Println("== metrics")
			fmt.Print(snap.Format())
			fmt.Println()
		}
		if *metOut != "" {
			f, err := os.Create(*metOut)
			if err != nil {
				return err
			}
			if err := snap.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote metrics snapshot to %s\n", *metOut)
		}
	}
	if trace != nil {
		spans := trace.Snapshot()
		f, err := os.Create(*trOut)
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans (of %d recorded) to %s\n", len(spans), trace.Total(), *trOut)
	}

	return nil
}

// renderCharts draws one bar chart per fully numeric table column, keyed by
// the first column's labels.
func renderCharts(t exp.Table) string {
	if len(t.Rows) == 0 || len(t.Columns) < 2 {
		return ""
	}
	var b strings.Builder
	for col := 1; col < len(t.Columns); col++ {
		labels := make([]string, 0, len(t.Rows))
		values := make([]float64, 0, len(t.Rows))
		numeric := true
		for _, row := range t.Rows {
			if col >= len(row) {
				numeric = false
				break
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				numeric = false
				break
			}
			labels = append(labels, row[0])
			values = append(values, v)
		}
		if !numeric || len(values) < 2 {
			continue
		}
		chart, err := plot.Bars(labels, values, 40)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "\n   %s:\n", t.Columns[col])
		for _, line := range strings.Split(strings.TrimRight(chart, "\n"), "\n") {
			fmt.Fprintf(&b, "   %s\n", line)
		}
	}
	return b.String()
}
