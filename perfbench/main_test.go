package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// tinySize shrinks every workload so each smoke run takes well under a
// second of measuring.
func tinySize() sizes {
	return sizes{
		trackN: 50, trackRounds: 6, trackOps: 3,
		fieldUsers: 20, fieldN: 40, fieldSites: 2, fieldRounds: 4, fieldOpsPerSite: 1,
		serveN: 30, serveInterval: 100 * time.Millisecond, serveCkptEvery: 1, serveSessions: 2,
		suiteIDs:     []string{"fig4", "ablation-search", "baseline-ekf"},
		suiteSamples: 100, suiteTrackN: 50,
		replayRounds: 2, setupReps: 2,
	}
}

func tinyRun(t *testing.T, name string, seed uint64, traced bool) result {
	t.Helper()
	cfg := runConfig{seed: seed, seconds: 300 * time.Millisecond, traced: traced, size: tinySize()}
	res, _, err := measure(name, workloads[name], cfg)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	return res
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts the result carries exactly the declared metrics,
// each with its declared unit and a well-formed name.
func checkMetrics(t *testing.T, what string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
		if !metricName.MatchString(w.Name) {
			t.Errorf("%s: metric name %q is malformed", what, w.Name)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !sort.StringsAreSorted(got) || len(got) != len(names) {
		t.Fatalf("program workloads %v, BENCHMARK.json %v", got, names)
	}
	for _, name := range names {
		if workloads[name] == nil {
			t.Fatalf("BENCHMARK.json names workload %s the program lacks", name)
		}
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, name, 3, traced)
			what := name
			want := spec.EndToEnd
			if traced {
				what += " traced"
				want = spec.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d", what, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, what, res, want)
			if !traced {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", what, n, m.Value)
					}
				}
			}
		}
	}
}

func TestWorkCountsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		a := tinyRun(t, name, 5, true)
		b := tinyRun(t, name, 5, true)
		for _, d := range perLayerDefs() {
			if d.exact && a.Metrics[d.name] != b.Metrics[d.name] {
				t.Errorf("%s: work count %s differs between runs: %v vs %v",
					name, d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
			}
		}
	}
}

// TestTimesScaledByCalibration checks that every end-to-end time is its
// measured value times the run's calibration factor, which the provenance
// records, and that nothing else is scaled.
func TestTimesScaledByCalibration(t *testing.T) {
	cfg := runConfig{seed: 4, seconds: 300 * time.Millisecond, size: tinySize()}
	res, prov, err := measure("track-exact", workloads["track-exact"], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Scale <= 0 || len(prov.Raw) != len(scaledMetrics) {
		t.Fatalf("provenance scale %v, raw %v", prov.Scale, prov.Raw)
	}
	for _, n := range scaledMetrics {
		if got, want := res.Metrics[n].Value, prov.Raw[n]*prov.Scale; got != want {
			t.Errorf("%s = %v, want raw %v × scale %v", n, got, prov.Raw[n], prov.Scale)
		}
	}
	if _, ok := prov.Raw["heap_live_mb"]; ok {
		t.Error("heap_live_mb was scaled")
	}
}

func TestMismatchedDigestFails(t *testing.T) {
	l := newLedger()
	checkDigest(l, "same", 42, 42)
	if l.failed != 0 {
		t.Fatalf("equal digests counted %d failures", l.failed)
	}
	checkDigest(l, "mismatched", 42, 43)
	res := l.result(nil, false)
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("mismatched digest: correct=%v failed=%d attempted=%d, want false/1/2",
			res.Correct, res.Failed, res.Attempted)
	}
}

// TestDigestSeesChangedEstimates runs one tracker pass twice, the second on
// a stream with one reading changed, and expects the digest check to fail.
func TestDigestSeesChangedEstimates(t *testing.T) {
	l := newLedger()
	ts, err := trackExactSpec(runConfig{seed: 2, size: tinySize()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ts.pass(l, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	ts.sites[0].stream.obs[0][0] *= 2
	b, err := ts.pass(l, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	before := l.failed
	checkDigest(l, "changed stream", b.digest, a.digest)
	if l.failed != before+1 {
		t.Fatalf("changed stream kept digest %016x", a.digest)
	}
}
