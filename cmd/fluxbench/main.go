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
//	fluxbench -json out.json  # also write a machine-readable benchmark report
//
// Degraded sensing (see internal/fault; figRobust sweeps these built-in):
//
//	fluxbench -exp fig7 -dropout 0.2            # 20% of sensors fail permanently
//	fluxbench -exp fig8a -loss 0.3 -delay 0.2   # lossy + delayed reports
//
// Byzantine sensors and robust defenses (see fault.Adversary and
// fit.RobustConfig; figByzantine sweeps the cross product built-in):
//
//	fluxbench -exp fig7 -liars 0.1               # 10% of sensors lie (inflate/deflate/replay mix)
//	fluxbench -exp fig7 -liars 0.1 -robust huber # same attack, Huber-IRLS defended fit
//	fluxbench -quick -robust both                # LOSO + Huber defense on clean data (cost check)
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
// Profiling and report comparison:
//
//	fluxbench -quick -cpuprofile cpu.out    # pprof CPU profile of the run
//	fluxbench -quick -memprofile mem.out    # heap profile at exit
//	fluxbench compare old.json new.json     # speedup table between two -json reports
//	fluxbench compare -maxregress 1.5 BENCH_pr8.json new.json  # the CI wall-clock gate
//
// With -maxregress, compare exits 1 when the new matched total exceeds that
// multiple of the old one, when no experiment id matches, or when the two
// reports differ in any run setting (gomaxprocs and go_version are host
// facts and do not count). Without it, compare only reports.
//
// Field sharding (see internal/shard; tiles the field into an RxC grid of
// independent trackers with cross-tile handoff — a 1x1 grid is byte-identical
// to the unsharded tracker):
//
//	fluxbench -quick -shards 2x2 -halo 2         # run the suite through a 2x2 tile grid
//	fluxbench shardbench                         # step throughput vs tile grid (1x1 vs 2x2)
//	fluxbench shardbench -grids 1x1,2x2,4x2 -trackn 10000 -json shard.json
//
// Scale sweeps (the 90/10 hot-corner regime; see DESIGN.md §6.7):
//
//	fluxbench shardbench -users 1000,20000 -grids 8x8 -skew 0.9 -activeset 16
//	fluxbench shardbench -users 20000 -grids 8x8 -skew 0.9   # uncapped search
//	fluxbench shardbench -users 5000 -grids 4x4 -capacity 500 -metrics
//
// Tiles are packed onto workers longest-processing-time first by
// deterministic cost estimates, and each tile reports only its owned users.
// -activeset caps the users each tile searches per round; the users/sec
// ratio against the same sweep without it is the capped-search speedup.
// -capacity bounds per-tile admission (spills stay deterministic), and
// -metrics prints the shard.* instrument snapshot, including per-tile
// gauges, at exit. Entries report p50/p95 step latency, max/mean tile-load
// imbalance, and retained bytes/user.
//
// Tracker latency is the same sweep over one grid and several worker
// counts; it checks that each grid's final estimates do not depend on the
// worker count, and takes the search flags above:
//
//	fluxbench shardbench -users 3 -grids 1x1 -workers 1,2,4,8 -trackn 1000
//	fluxbench shardbench -users 3 -grids 1x1 -workers 1,8 -coarse -liars 0.1 -robust huber
//
// Serving latency, per-layer timings and the end-to-end benchmark live in
// the separate perfbench module (perfbench/README.md).
//
// Tables are byte-identical for every -workers value (see internal/exp),
// and so is tracker output (see internal/smc): -workers trades wall time
// only, never results. The same holds with -metrics and -trace on: the
// instruments are write-only, and the counter totals themselves are
// worker-count-invariant (only the latency histograms vary run to run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fluxtrack/internal/exp"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/plot"
	"fluxtrack/internal/shard"
)

// benchReport is the schema written by -json: enough configuration to
// reproduce the run plus per-experiment wall time and the rendered rows.
type benchReport struct {
	Config       string            `json:"config"` // "default" or "quick"
	Seed         uint64            `json:"seed"`
	Trials       int               `json:"trials"`
	Samples      int               `json:"samples"`
	TrackN       int               `json:"track_n"`
	Rounds       int               `json:"rounds"`
	Workers      int               `json:"workers"`               // 0 = GOMAXPROCS
	CoarseTopK   int               `json:"coarse_topk,omitempty"` // 0 = exact search
	CoarseGrid   int               `json:"coarse_grid,omitempty"`
	Shards       string            `json:"shards,omitempty"` // RxC tile grid, "" = unsharded
	Halo         float64           `json:"halo,omitempty"`   // tile halo width for Shards
	Liars        float64           `json:"liars,omitempty"`  // Byzantine sensor fraction, 0 = all honest
	Robust       string            `json:"robust,omitempty"` // robust-fit defense mode, "" = off
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	Experiments  []benchExperiment `json:"experiments"`
	TotalSeconds float64           `json:"total_seconds"`
	// Metrics is the merged observability snapshot of the whole run, present
	// only when -metrics or -metricsout was given (see internal/obs).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

type benchExperiment struct {
	ID      string     `json:"id"`
	Seconds float64    `json:"seconds"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluxbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	if len(args) > 0 && args[0] == "shardbench" {
		return runShardBench(args[1:])
	}
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
		jsonOut = fs.String("json", "", "write a JSON benchmark report to this file")
		chart   = fs.Bool("chart", false, "render an ASCII bar chart per table column")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		shards  = fs.String("shards", "", "track through a RxC tile grid (internal/shard), e.g. 2x2; empty = unsharded")
		halo    = fs.Float64("halo", 0, "tile halo width for -shards: sensors within this margin report to both neighbors")
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
		return fmt.Errorf("unknown subcommand or argument %q (want compare or shardbench)", fs.Arg(0))
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
	if *shards != "" {
		grid, err := shard.ParseGrid(*shards)
		if err != nil {
			return err
		}
		grid.Halo = *halo
		cfg.Shards = grid
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

	report := benchReport{
		Config:     "default",
		Seed:       cfg.Seed,
		Trials:     cfg.Trials,
		Samples:    cfg.Samples,
		TrackN:     cfg.TrackN,
		Rounds:     cfg.Rounds,
		Workers:    cfg.Workers,
		CoarseTopK: cfg.Coarse.TopK,
		CoarseGrid: cfg.Coarse.GridRes,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Halo:       cfg.Shards.Halo,
		Liars:      exp.LiarFrac(cfg.Adversary),
		GoVersion:  runtime.Version(),
	}
	if cfg.Robust.Mode != fit.RobustOff {
		report.Robust = cfg.Robust.Mode.String()
	}
	if *quick {
		report.Config = "quick"
	}
	if cfg.Shards.Tiles() > 0 {
		report.Shards = cfg.Shards.String()
	}

	allStart := time.Now()
	for _, e := range experiments {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		secs := time.Since(start).Seconds()
		fmt.Print(table.Render())
		if *chart {
			fmt.Print(renderCharts(table))
		}
		fmt.Printf("   (%s in %.1fs)\n\n", e.ID, secs)
		report.Experiments = append(report.Experiments, benchExperiment{
			ID: e.ID, Seconds: secs, Columns: table.Columns, Rows: table.Rows,
		})
	}
	report.TotalSeconds = time.Since(allStart).Seconds()

	if met != nil {
		snap := met.Snapshot()
		report.Metrics = &snap
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

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote benchmark report to %s\n", *jsonOut)
	}
	return nil
}

// runCompare diffs two -json benchmark reports: per-experiment wall time in
// the old and new run plus the speedup ratio, then the totals. Experiments
// present in only one report are listed but not ratioed. With -maxregress R
// the command is the CI performance gate: it exits nonzero when the two
// runs differ in any run setting, when no experiment id matches, or when
// the new matched total exceeds R times the old one.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("fluxbench compare", flag.ContinueOnError)
	maxRegress := fs.Float64("maxregress", 0, "fail when new total wall time exceeds this multiple of the old total (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if math.IsNaN(*maxRegress) || math.IsInf(*maxRegress, 0) || *maxRegress < 0 {
		return fmt.Errorf("-maxregress %v is not a finite non-negative ratio", *maxRegress)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: fluxbench compare [-maxregress R] old.json new.json (got %d args)", fs.NArg())
	}
	oldRep, err := loadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := loadReport(fs.Arg(1))
	if err != nil {
		return err
	}
	cmp := compareReports(oldRep, newRep, fs.Arg(0), fs.Arg(1))
	fmt.Print(cmp.text)
	if *maxRegress == 0 {
		return nil
	}
	if len(cmp.settingsDiff) > 0 {
		return fmt.Errorf("run settings differ: %s", strings.Join(cmp.settingsDiff, ", "))
	}
	if cmp.matched == 0 {
		return fmt.Errorf("no experiment id of %s appears in %s", fs.Arg(1), fs.Arg(0))
	}
	if cmp.newTotal > *maxRegress*cmp.oldTotal {
		return fmt.Errorf("regression: new matched total %.2fs exceeds %.2fx old total %.2fs (limit %.2fx)",
			cmp.newTotal, cmp.newTotal/cmp.oldTotal, cmp.oldTotal, *maxRegress)
	}
	return nil
}

func loadReport(path string) (benchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, err
	}
	var r benchReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return benchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// comparison is the outcome of compareReports.
type comparison struct {
	text               string   // the rendered speedup table
	oldTotal, newTotal float64  // wall seconds over the matched experiments
	matched            int      // experiment ids present in both reports
	settingsDiff       []string // "key old vs new" for each differing run setting
}

func compareReports(oldRep, newRep benchReport, oldPath, newPath string) comparison {
	var c comparison
	var b strings.Builder
	fmt.Fprintf(&b, "old: %s (config=%s trials=%d workers=%d %s)\n",
		oldPath, oldRep.Config, oldRep.Trials, oldRep.Workers, oldRep.GoVersion)
	fmt.Fprintf(&b, "new: %s (config=%s trials=%d workers=%d %s)\n",
		newPath, newRep.Config, newRep.Trials, newRep.Workers, newRep.GoVersion)
	c.settingsDiff = settingsDiff(oldRep, newRep)
	if len(c.settingsDiff) > 0 {
		fmt.Fprintf(&b, "warning: run settings differ (%s); ratios compare unlike work\n",
			strings.Join(c.settingsDiff, ", "))
	}
	b.WriteString("\n")

	oldSecs := make(map[string]float64, len(oldRep.Experiments))
	for _, e := range oldRep.Experiments {
		oldSecs[e.ID] = e.Seconds
	}
	fmt.Fprintf(&b, "%-20s %10s %10s %9s\n", "experiment", "old s", "new s", "speedup")
	matched := make(map[string]bool, len(newRep.Experiments))
	for _, e := range newRep.Experiments {
		prev, ok := oldSecs[e.ID]
		if !ok {
			fmt.Fprintf(&b, "%-20s %10s %10.2f %9s  (new only)\n", e.ID, "-", e.Seconds, "-")
			continue
		}
		matched[e.ID] = true
		c.oldTotal += prev
		c.newTotal += e.Seconds
		ratio := "-"
		if e.Seconds > 0 {
			ratio = fmt.Sprintf("%.2fx", prev/e.Seconds)
		}
		fmt.Fprintf(&b, "%-20s %10.2f %10.2f %9s\n", e.ID, prev, e.Seconds, ratio)
	}
	for _, e := range oldRep.Experiments {
		if !matched[e.ID] {
			fmt.Fprintf(&b, "%-20s %10.2f %10s %9s  (old only)\n", e.ID, e.Seconds, "-", "-")
		}
	}
	c.matched = len(matched)
	ratio := "-"
	if c.newTotal > 0 {
		ratio = fmt.Sprintf("%.2fx", c.oldTotal/c.newTotal)
	}
	fmt.Fprintf(&b, "%-20s %10.2f %10.2f %9s\n", "total (matched)", c.oldTotal, c.newTotal, ratio)
	c.text = b.String()
	return c
}

// settingsDiff lists every run setting in which two reports differ, as
// "key old vs new" by JSON key. The settings are all header fields of
// benchReport except gomaxprocs and go_version, which describe the host
// rather than the run.
func settingsDiff(oldRep, newRep benchReport) []string {
	settings := func(r benchReport) reflect.Value {
		r.GOMAXPROCS, r.GoVersion = 0, ""
		r.Experiments, r.TotalSeconds, r.Metrics = nil, 0, nil
		return reflect.ValueOf(r)
	}
	show := func(v any) string {
		if s, ok := v.(string); ok {
			return strconv.Quote(s)
		}
		return fmt.Sprint(v)
	}
	ov, nv := settings(oldRep), settings(newRep)
	var diff []string
	for i := 0; i < ov.NumField(); i++ {
		o, n := ov.Field(i).Interface(), nv.Field(i).Interface()
		if !reflect.DeepEqual(o, n) {
			key, _, _ := strings.Cut(ov.Type().Field(i).Tag.Get("json"), ",")
			diff = append(diff, fmt.Sprintf("%s %s vs %s", key, show(o), show(n)))
		}
	}
	return diff
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
