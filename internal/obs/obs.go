// Package obs is the pipeline's near-zero-overhead observability layer:
// sharded atomic counters, bounded histograms, and a structured step-trace
// ring buffer (trace.go), with pluggable sinks (JSON and a human-readable
// table).
//
// The design constraints, in order:
//
//  1. Observation must never perturb results. Instrumented code only
//     *writes* metrics; nothing in the pipeline ever reads one back, and no
//     instrumentation touches an RNG stream. Counters record deterministic
//     work counts (compositions evaluated, NNLS iterations, faults fired),
//     so after a deterministic run their merged totals are byte-identical
//     at any worker count — totals are sums over per-worker shards, and
//     addition is commutative, so scheduling cannot change them. Wall-time
//     measurements go to histograms only (suffix _ms or _ns), which are the
//     one intentionally non-deterministic domain. The golden test in
//     internal/exp (TestMetricsDoNotPerturbTables) enforces the contract:
//     experiment tables with metrics enabled are byte-identical to the
//     metrics-off run at every worker count, and every counter total is
//     worker-count-invariant.
//
//  2. Disabled must cost (almost) nothing. Every handle type (*Counter,
//     *Histogram, *Trace) tolerates a nil receiver: a nil Metrics registry
//     hands out nil handles, and Add/Observe on a nil handle is a single
//     predictable branch — no allocation, no atomic, no time.Now call.
//     Instrument sites obtain handles once at construction time and keep
//     them in struct fields, so the hot path never performs a map lookup.
//     TestDisabledPathAllocs pins testing.AllocsPerRun at zero for the
//     disabled path and the overhead benchmarks in bench_test.go compare
//     nil-sink against enabled steps.
//
//  3. Enabled must stay cheap under parallelism. Counters are sharded
//     across cache-line-padded atomic slots indexed by the caller's worker
//     index (the same w that internal/par hands every fork-join worker), so
//     concurrent workers do not bounce one hot cache line. Histograms use
//     atomic bucket counts per shard. Snapshot() merges shards in ascending
//     index order and sorts instruments by name, so rendered snapshots are
//     stable.
//
// Naming convention: instruments are dot-separated, lowest component first
// ("fit.nnls.iters", "smc.step.wall_ms"). Counters count things; histograms
// whose name ends in _ms or _ns hold durations and are excluded from the
// determinism contract.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// shard is one cache-line-padded atomic counter slot.
type shard struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes so neighboring shards never share a line
}

// Counter is a monotonically increasing sharded counter. The zero of a nil
// *Counter is the disabled instrument: Add on it is a no-op branch.
type Counter struct {
	name   string
	mask   uint32
	shards []shard
}

// Add adds v to the counter, attributing it to worker shard w (any
// non-negative index; it is reduced modulo the shard count). Safe for
// concurrent use; a nil receiver is a no-op.
func (c *Counter) Add(w int, v uint64) {
	if c == nil || v == 0 {
		return
	}
	c.shards[uint32(w)&c.mask].v.Add(v)
}

// Inc is Add(w, 1).
func (c *Counter) Inc(w int) { c.Add(w, 1) }

// Value merges the shards in ascending index order and returns the total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Histogram is a bounded histogram with fixed upper bounds and an implicit
// overflow bucket. Observations are atomic bucket increments plus an atomic
// floating-point sum, sharded like Counter. A nil *Histogram is the
// disabled instrument.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; bucket len(bounds) = overflow
	mask   uint32
	// Per shard: len(bounds)+1 bucket counts followed by one float64-bits
	// sum slot, laid out contiguously so one shard spans adjacent memory.
	cells  []atomic.Uint64
	stride int
}

// Observe records v in the bucket with the smallest upper bound >= v,
// attributing it to worker shard w. Safe for concurrent use; nil receivers
// and NaN values are no-ops.
func (h *Histogram) Observe(w int, v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	b := 0
	for b < len(h.bounds) && v > h.bounds[b] {
		b++
	}
	base := int(uint32(w)&h.mask) * h.stride
	h.cells[base+b].Add(1)
	// Atomic float add by CAS on the bit pattern of the shard's sum slot.
	slot := &h.cells[base+h.stride-1]
	for {
		old := slot.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if slot.CompareAndSwap(old, next) {
			return
		}
	}
}

// DurationBucketsMs is the default bucket layout for wall-time histograms,
// in milliseconds: roughly logarithmic from 50µs to 30s.
var DurationBucketsMs = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000,
}

// CountBuckets is the default bucket layout for small-integer distributions
// (queue depths, set sizes): powers of two up to 4096.
var CountBuckets = []float64{
	0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
}

// Metrics is a registry of named counters and histograms sharing one shard
// layout. A nil *Metrics is the disabled registry: Counter and Histogram
// return nil handles, which make every downstream call a no-op.
type Metrics struct {
	mu     sync.Mutex
	nshard int
	mask   uint32
	ctrs   map[string]*Counter
	hists  map[string]*Histogram
}

// New returns a Metrics registry with the given shard count (rounded up to
// a power of two; <= 0 means one shard per CPU).
func New(shards int) *Metrics {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Metrics{
		nshard: n,
		mask:   uint32(n - 1),
		ctrs:   make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Call it once at construction time and keep the handle; the hot path
// should never pay the lookup. Returns nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.ctrs[name]; ok {
		return c
	}
	c := &Counter{name: name, mask: m.mask, shards: make([]shard, m.nshard)}
	m.ctrs[name] = c
	return c
}

// Histogram returns the histogram registered under name with the given
// upper bounds, creating it on first use (bounds of an existing histogram
// are kept). Returns nil on a nil registry.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hists[name]; ok {
		return h
	}
	stride := len(bounds) + 2 // buckets + overflow + sum slot
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		mask:   m.mask,
		cells:  make([]atomic.Uint64, m.nshard*stride),
		stride: stride,
	}
	m.hists[name] = h
	return h
}

// CounterValue is one merged counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramValue is one merged histogram in a Snapshot. Counts is aligned
// with Bounds plus one trailing overflow bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (q in [0, 1]); observations in the overflow bucket report the last bound.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, n := range h.Counts {
		cum += n
		if cum >= target {
			if b < len(h.Bounds) {
				return h.Bounds[b]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a merged, name-sorted view of a Metrics registry — the
// export all sinks render from.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot merges every instrument (shards in ascending index order) and
// returns the instruments sorted by name, so two snapshots of identical
// work render identically. A nil registry yields an empty snapshot.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.ctrs {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, h := range m.hists {
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.bounds)+1),
		}
		for w := 0; w < m.nshard; w++ {
			base := w * h.stride
			for b := range hv.Counts {
				hv.Counts[b] += h.cells[base+b].Load()
			}
			hv.Sum += math.Float64frombits(h.cells[base+h.stride-1].Load())
		}
		for _, n := range hv.Counts {
			hv.Count += n
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// Format renders the snapshot as an aligned human-readable table: counters
// first, then histograms with count/mean/p50/p95 columns.
func (s Snapshot) Format() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		width := len("counter")
		for _, c := range s.Counters {
			if len(c.Name) > width {
				width = len(c.Name)
			}
		}
		fmt.Fprintf(&b, "%-*s %14s\n", width, "counter", "total")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "%-*s %14d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Histograms) > 0 {
		if len(s.Counters) > 0 {
			b.WriteByte('\n')
		}
		width := len("histogram")
		for _, h := range s.Histograms {
			if len(h.Name) > width {
				width = len(h.Name)
			}
		}
		fmt.Fprintf(&b, "%-*s %10s %12s %10s %10s\n", width, "histogram", "count", "mean", "p50", "p95")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "%-*s %10d %12.3f %10.3f %10.3f\n",
				width, h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.95))
		}
	}
	return b.String()
}
