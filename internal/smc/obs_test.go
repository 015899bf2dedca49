package smc

import (
	"reflect"
	"testing"

	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
)

// trackScenarioObserved is trackScenario with a metrics registry and trace
// ring bound; it returns the step results plus the instruments for
// inspection.
func trackScenarioObserved(t testing.TB, workers, rounds int) ([]StepResult, *obs.Metrics, *obs.Trace) {
	t.Helper()
	met := obs.New(4)
	trace := obs.NewTrace(64)
	m, pts := testModel(t, 30)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 3,
		N: 200, M: 8, VMax: 3,
		Search:  fit.Options{Seed: 99},
		Workers: workers,
		Metrics: met,
		Trace:   trace,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]StepResult, 0, rounds)
	for step := 1; step <= rounds; step++ {
		truths := []geom.Point{
			geom.Pt(5+1.5*float64(step), 8),
			geom.Pt(25-1.5*float64(step), 22),
			geom.Pt(15, 5+2*float64(step)),
		}
		obsv := observe(t, m, pts, truths, []float64{1.5, 2.0, 1.0})
		res, err := tr.Step(float64(step), obsv)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out, met, trace
}

// TestMetricsDoNotPerturbSteps is the tracker-level half of the
// observability determinism contract: binding a metrics registry and a
// trace ring must leave every StepResult byte-identical to the
// uninstrumented run — the instruments are write-only.
func TestMetricsDoNotPerturbSteps(t *testing.T) {
	plain := trackScenario(t, 1, 6)
	observed, met, trace := trackScenarioObserved(t, 1, 6)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("enabling metrics+trace changed tracker output")
	}
	snap := met.Snapshot()
	if len(snap.Counters)+len(snap.Histograms) == 0 {
		t.Fatal("observed run produced an empty snapshot")
	}
	if got := trace.Total(); got != 6 {
		t.Fatalf("trace recorded %d spans, want 6", got)
	}
	for i, s := range trace.Snapshot() {
		if s.Step != i || s.Users != 3 || s.Searched != 3 || s.Candidates != 3*200 {
			t.Fatalf("span %d has wrong counts: %+v", i, s)
		}
		if s.NNLSSolves == 0 || s.WallNs <= 0 {
			t.Fatalf("span %d missing work/timing: %+v", i, s)
		}
	}
}

// TestMetricsWorkerInvariantCounters pins the second half of the contract:
// counter totals (unlike wall-clock histograms) count deterministic work, so
// they must be identical at any worker count.
func TestMetricsWorkerInvariantCounters(t *testing.T) {
	_, met1, _ := trackScenarioObserved(t, 1, 6)
	_, met4, _ := trackScenarioObserved(t, 4, 6)
	c1, c4 := met1.Snapshot().Counters, met4.Snapshot().Counters
	if !reflect.DeepEqual(c1, c4) {
		t.Fatalf("counter totals differ across worker counts:\nworkers=1: %+v\nworkers=4: %+v", c1, c4)
	}
}

// BenchmarkTrackerStepObserved measures one tracking round with the
// observability layer disabled (nil registry: every instrument call is one
// nil branch) and fully enabled (counters, histogram, trace ring). The
// disabled column is the ≤2% end-to-end overhead claim of the obs package
// doc; compare against BenchmarkTrackerStep in parallel_test.go, which
// predates the instrumentation entirely.
func BenchmarkTrackerStepObserved(b *testing.B) {
	for _, bc := range []struct {
		name string
		met  func() (*obs.Metrics, *obs.Trace)
	}{
		{"disabled", func() (*obs.Metrics, *obs.Trace) { return nil, nil }},
		{"enabled", func() (*obs.Metrics, *obs.Trace) { return obs.New(0), obs.NewTrace(4096) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			met, trace := bc.met()
			m, pts := testModel(b, 38)
			tr, err := New(Config{
				Model: m, SamplePoints: pts, NumUsers: 3,
				N: 400, M: 10, VMax: 3,
				Workers: 1,
				Metrics: met,
				Trace:   trace,
			}, 39)
			if err != nil {
				b.Fatal(err)
			}
			obsv := observe(b, m, pts,
				[]geom.Point{geom.Pt(8, 8), geom.Pt(22, 10), geom.Pt(15, 24)},
				[]float64{1.5, 2, 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(float64(i+1), obsv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
