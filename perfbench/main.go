// Command perfbench is fluxtrack's benchmark: three named workloads, each
// generated from a seed, timed from outside the program through the public
// entry points of its layers, and checked for correctness.
//
//	perfbench --workload track-exact --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 the same workload and seed run with
// obs.Metrics and obs.Trace on, plus a layer replay, and the object carries
// the per-layer ledger instead. Any failed step or correctness check makes
// the command exit non-zero. README.md beside this file maps each workload
// to the layers it stresses and each metric to the layer it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"fluxtrack/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	size    sizes
}

// workload runs one named workload into the ledger. An error means the
// workload could not be set up or measured at all; failed operations and
// checks go to the ledger instead.
type workload func(cfg runConfig, l *ledger) error

var workloads = map[string]workload{
	"track-exact":   runTrackExact,
	"field-hotspot": runFieldHotspot,
	"serve-stream":  runServeStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: track-exact, field-hotspot or serve-stream")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs with metrics and spans on and reports the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		size:    fullSize(),
	}
	res, prov, err := measure(*name, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	provLine, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", provLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs one workload, with calibration probes before, between its
// repeats and after, and assembles its result: end-to-end metrics untraced,
// the per-layer ledger traced.
func measure(name string, w workload, cfg runConfig) (result, provenance, error) {
	l := newLedger()
	l.probe()
	if err := w(cfg, l); err != nil {
		return result{}, provenance{}, err
	}
	l.probe()
	fastest, slowest := stats.Min(l.probes), stats.Max(l.probes)
	l.set("bench.calib_ms", fastest)
	l.set("bench.calib_drift_frac", slowest/fastest-1)
	prov := newProvenance(name, cfg, l.probes)
	if cfg.traced {
		return l.result(perLayerDefs(), false), prov, nil
	}
	prov.Scale = calibRefMs / stats.Percentile(l.probes, 10)
	prov.Raw = make(map[string]float64)
	for _, n := range scaledMetrics {
		if v, ok := l.values[n]; ok {
			prov.Raw[n] = v
			l.set(n, v*prov.Scale)
		}
	}
	return l.result(endToEndDefs, true), prov, nil
}

// calibRefMs is the reference machine speed the end-to-end times are scaled
// to: on it, the 10th percentile of a run's calibration probes is 20 ms.
// The machine a run lands on changes speed by a third within seconds and
// drifts over minutes, and the fastest times a run records move with it;
// the probes, timed throughout the run, see the same drift. Scaling by
// them keeps that drift out of the comparison between commits, and the
// provenance line keeps every time as measured.
const calibRefMs = 20

// scaledMetrics are the end-to-end metrics that are times.
var scaledMetrics = []string{"setup_s", "latency_p50_ms", "latency_p90_ms", "latency_mean_ms"}

// metricDef names one reported metric. Exact metrics are deterministic work
// counts or ratios of them: they repeat exactly for a seed.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEndDefs are the metrics a user of the system sees, reported by every
// workload; "op" is the workload's unit of work (README.md).
var endToEndDefs = []metricDef{
	{"setup_s", "s", false},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"latency_mean_ms", "ms", false},
	{"heap_live_mb", "MB", false},
}

// layerDefs is the per-layer ledger; perLayerDefs appends one exp.<id>_s
// row per registry experiment. A workload that does not exercise a layer
// reports 0 for it.
var layerDefs = []metricDef{
	{"fluxmodel.columns", "count", true},
	{"fluxmodel.ns_per_column", "ns", false},
	{"fit.compositions", "count", true},
	{"fit.ns_per_composition", "ns", false},
	{"fit.search_ms_p50", "ms", false},
	{"fit.coarse.shortlist_frac", "frac", true},
	{"fit.coarse.avoided_frac", "frac", true},
	{"fit.coarse.knn_probes", "count", true},
	{"fit.robust.passes", "count", true},
	{"fit.robust.flagged", "count", true},
	{"fit.robust.overhead_ratio", "ratio", false},
	{"mat.iters_per_solve", "iters", true},
	{"mat.ns_per_solve", "ns", false},
	{"fingerprint.builds", "count", true},
	{"fingerprint.build_ms", "ms", false},
	{"fingerprint.cache_hit_frac", "frac", true},
	{"smc.predict_ms_p50", "ms", false},
	{"smc.update_ms_p50", "ms", false},
	{"smc.searched_users", "count", true},
	{"smc.candidates", "count", true},
	{"shard.coord_ms_p50", "ms", false},
	{"shard.hot_tile_ms_p50", "ms", false},
	{"shard.tile_queue_ms_p90", "ms", false},
	{"shard.handoffs", "count", true},
	{"shard.imbalance_max", "count", true},
	{"shard.spills", "count", true},
	{"serve.observe_ms_p50", "ms", false},
	{"serve.estimate_ms_p50", "ms", false},
	{"serve.step_ms_p50", "ms", false},
	{"serve.wait_ms_p50", "ms", false},
	{"serve.checkpoint_ms_p50", "ms", false},
	{"serve.checkpoint_bytes", "bytes", true},
	{"serve.rejected", "count", true},
	{"traffic.flux_rounds", "count", true},
	{"traffic.tree_hit_frac", "frac", true},
	{"exp.pool.units", "count", true},
	{"exp.suite_s", "s", false},
	{"track.err_mean", "field_units", true},
	{"track.users_per_s", "1/s", false},
	{"bench.trace_overhead_frac", "frac", false},
	{"bench.loadgen_lag_p90_ms", "ms", false},
	{"bench.calib_ms", "ms", false},
	{"bench.calib_drift_frac", "frac", false},
}

func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), layerDefs...)
	for _, id := range suiteIDs(nil) {
		defs = append(defs, metricDef{expMetric(id), "s", false})
	}
	return defs
}

func expMetric(id string) string { return "exp." + id + "_s" }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger collects one run's operation counts, failures, metric values and
// calibration probes.
type ledger struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	probes            []float64 // calibration loop times, ms
}

func newLedger() *ledger { return &ledger{values: make(map[string]float64)} }

// op counts one attempted operation of the workload and reports whether it
// succeeded.
func (l *ledger) op(err error) bool {
	l.attempted++
	if err != nil {
		l.fail("%v", err)
		return false
	}
	return true
}

// check counts one correctness check.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.fail(format, args...)
	}
}

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 20 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

func (l *ledger) set(name string, v float64) { l.values[name] = v }

// probe times the calibration loop once. Workloads probe between repeats,
// outside any timed region, so the machine's drift over the run shows next
// to the numbers it affected.
func (l *ledger) probe() { l.probes = append(l.probes, calibrate()) }

// result builds the output object over defs. A required metric that was not
// measured, and any value that is not finite, fails the run.
func (l *ledger) result(defs []metricDef, required bool) result {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := l.values[d.name]
		if !ok && required {
			l.fail("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			l.fail("metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, f := range l.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", f)
	}
	attempted := max(l.attempted, 1)
	return result{Correct: l.failed == 0, Attempted: attempted, Failed: l.failed, Metrics: out}
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink float64

// calibVec is the calibration loop's dot-product operand, 32 KiB.
var calibVec = func() []float64 {
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i%97) * 1e-3
	}
	return v
}()

// calibrate times a fixed pure-Go loop of integer and floating-point work
// over a cache-resident vector, in milliseconds. It runs none of the
// repository's code, so a change to the program cannot move it; only the
// machine can.
func calibrate() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>40) * 1e-9
	}
	for rep := 0; rep < 1600; rep++ {
		var dot float64
		for i, v := range calibVec {
			dot += v * calibVec[len(calibVec)-1-i]
		}
		acc += dot
	}
	calibSink += acc
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
