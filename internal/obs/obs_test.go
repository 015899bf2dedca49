package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterMerge(t *testing.T) {
	m := New(4)
	c := m.Counter("a.b")
	for w := 0; w < 16; w++ {
		c.Add(w, uint64(w+1))
	}
	want := uint64(16 * 17 / 2)
	if got := c.Value(); got != want {
		t.Fatalf("Value = %d, want %d", got, want)
	}
	snap := m.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != want {
		t.Fatalf("snapshot = %+v, want one counter of %d", snap.Counters, want)
	}
}

func TestCounterConcurrentTotal(t *testing.T) {
	m := New(8)
	c := m.Counter("conc")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestCounterRegistryReturnsSameHandle(t *testing.T) {
	m := New(1)
	if m.Counter("x") != m.Counter("x") {
		t.Fatal("same name must return the same handle")
	}
	if m.Histogram("h", DurationBucketsMs) != m.Histogram("h", nil) {
		t.Fatal("same histogram name must return the same handle")
	}
}

func TestHistogram(t *testing.T) {
	m := New(2)
	h := m.Histogram("lat_ms", []float64{1, 10, 100})
	for w, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(w, v)
	}
	snap := m.Snapshot()
	hv := snap.Histograms[0]
	if hv.Count != 5 {
		t.Fatalf("Count = %d, want 5", hv.Count)
	}
	if want := 0.5 + 0.7 + 5 + 50 + 500; hv.Sum != want {
		t.Fatalf("Sum = %v, want %v", hv.Sum, want)
	}
	wantCounts := []uint64{2, 1, 1, 1}
	for i, n := range wantCounts {
		if hv.Counts[i] != n {
			t.Fatalf("Counts = %v, want %v", hv.Counts, wantCounts)
		}
	}
	if p50 := hv.Quantile(0.5); p50 != 10 {
		t.Fatalf("p50 = %v, want 10 (bucket upper bound)", p50)
	}
	if p95 := hv.Quantile(0.95); p95 != 100 {
		t.Fatalf("p95 = %v, want 100 (overflow reports last bound)", p95)
	}
}

// TestDisabledPathAllocs pins the disabled-path contract: a nil registry
// hands out nil handles and every operation on them performs zero heap
// allocations (and, by inspection, one branch each).
func TestDisabledPathAllocs(t *testing.T) {
	var m *Metrics
	c := m.Counter("never")
	h := m.Histogram("never", DurationBucketsMs)
	var tr *Trace
	if c != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3, 7)
		c.Inc(0)
		h.Observe(1, 2.5)
		tr.Add(Span{Step: 1})
		_ = c.Value()
		_ = tr.Total()
		_ = tr.Snapshot()
		_ = m.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per run, want 0", allocs)
	}
}

// TestEnabledSteadyStateAllocs pins the enabled hot path: once handles are
// held, Add/Observe/Trace.Add allocate nothing.
func TestEnabledSteadyStateAllocs(t *testing.T) {
	m := New(4)
	c := m.Counter("c")
	h := m.Histogram("h", DurationBucketsMs)
	tr := NewTrace(8)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(2, 5)
		h.Observe(1, 3.5)
		tr.Add(Span{Step: 2})
	})
	if allocs != 0 {
		t.Fatalf("enabled steady state allocates %v per run, want 0", allocs)
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Add(Span{Step: i})
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Step != i+2 {
			t.Fatalf("spans = %v, want steps 2,3,4", spans)
		}
	}
}

func TestTraceSnapshotUnwrapped(t *testing.T) {
	tr := NewTrace(8)
	tr.Add(Span{Step: 0})
	tr.Add(Span{Step: 1})
	spans := tr.Snapshot()
	if len(spans) != 2 || spans[0].Step != 0 || spans[1].Step != 1 {
		t.Fatalf("spans = %v, want steps 0,1", spans)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	spans := []Span{{Seed: 7, Step: 0, Time: 1, NNLSIters: 42}, {Seed: 7, Step: 1, Time: 2}}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var got Span
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got != spans[0] {
		t.Fatalf("round trip = %+v, want %+v", got, spans[0])
	}
}

func TestSnapshotSinks(t *testing.T) {
	m := New(2)
	m.Counter("b.two").Add(0, 2)
	m.Counter("a.one").Add(1, 1)
	m.Histogram("lat_ms", []float64{1, 10}).Observe(0, 5)
	snap := m.Snapshot()

	// Name-sorted merge order.
	if snap.Counters[0].Name != "a.one" || snap.Counters[1].Name != "b.two" {
		t.Fatalf("counters not name-sorted: %+v", snap.Counters)
	}
	// Table sink mentions every instrument.
	table := snap.Format()
	for _, want := range []string{"a.one", "b.two", "lat_ms", "counter", "histogram"} {
		if !strings.Contains(table, want) {
			t.Fatalf("Format() missing %q:\n%s", want, table)
		}
	}
	// JSON sink round-trips.
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 2 || back.Counters[1].Value != 2 {
		t.Fatalf("JSON round trip = %+v", back)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatal("snapshot should hold both instrument kinds")
	}
	var nilM *Metrics
	if ns := nilM.Snapshot(); len(ns.Counters)+len(ns.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}
