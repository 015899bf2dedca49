package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/shard"
)

// goldenConfig shrinks every effort knob to the smallest values at which
// the full registry still runs every code path (the trace pipeline needs
// Rounds >= 3 to produce measurable windows). The determinism contract is
// independent of effort, so small is fine — the full suite must be rendered
// several times per test below.
func goldenConfig() Config {
	return Config{Seed: 1, Trials: 1, Samples: 150, TrackN: 40, TrackM: 10, Rounds: 3}
}

// goldenFault is the degraded-sensing configuration of the fault entries
// and the field-hotspot entry of the golden file.
var goldenFault = fault.Config{DropoutFrac: 0.15, LossProb: 0.10, DelayProb: 0.20, DelayRounds: 1, StuckFrac: 0.05}

// The experiments TestGoldenFaultInjection, TestGoldenByzantine and
// TestGoldenFieldHotspot run, each pinned in the golden file under
// "fault/<id>", "byzantine/<id>" and "field-hotspot/<id>".
var (
	goldenFaultIDs     = []string{"fig7", "fig8a", "figRobust"}
	goldenByzantineIDs = []string{"fig7", "fig8a"}
	goldenHotspotIDs   = []string{"fig7", "fig8a"}
)

// renderAt runs one experiment at the given worker count and seed and
// returns the rendered table.
func renderAt(t *testing.T, e Experiment, workers int, seed uint64) string {
	t.Helper()
	cfg := goldenConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	return renderCfg(t, e, cfg)
}

// renderCfg runs one experiment at cfg and returns the rendered table.
func renderCfg(t *testing.T, e Experiment, cfg Config) string {
	t.Helper()
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s workers=%d seed=%d: %v", e.ID, cfg.Workers, cfg.Seed, err)
	}
	return tbl.Render()
}

// goldenRender is renderCfg with a fresh metrics registry bound; it checks
// the table digest and the counter totals against the golden entry key
// before returning the table. Metrics never change a table
// (TestMetricsDoNotPerturbTables), so the returned render is the plain one.
func goldenRender(t *testing.T, key string, e Experiment, cfg Config) string {
	t.Helper()
	cfg.Metrics = obs.New(0)
	out := renderCfg(t, e, cfg)
	checkGolden(t, key, out, cfg.Metrics.Snapshot().Counters)
	return out
}

// goldenPath is the checked-in baseline: for every golden key, the SHA-256
// of the rendered table and the obs counter totals of its Workers=1 run.
// A digest change means the output changed; a counter change means the
// code did different work. A change that moves either re-records the file
// by deleting it and running `go test -run TestGolden ./internal/exp`,
// and says why in its description.
const goldenPath = "testdata/golden.json"

type goldenEntry struct {
	Table    string            `json:"table_sha256"`
	Counters map[string]uint64 `json:"counters"`
}

// golden holds the loaded baseline, or, when the file is missing, the
// entries recorded by this test binary for TestMain to write.
var golden struct {
	load     sync.Once
	want     map[string]goldenEntry // nil while recording
	loadErr  error
	mu       sync.Mutex
	recorded map[string]goldenEntry
}

// goldenKeys returns every key the golden file must hold, sorted: each
// registry id, plus the fault, Byzantine and field-hotspot entries.
func goldenKeys() []string {
	var keys []string
	for _, e := range All() {
		keys = append(keys, e.ID)
	}
	for _, id := range goldenFaultIDs {
		keys = append(keys, "fault/"+id)
	}
	for _, id := range goldenByzantineIDs {
		keys = append(keys, "byzantine/"+id)
	}
	for _, id := range goldenHotspotIDs {
		keys = append(keys, "field-hotspot/"+id)
	}
	sort.Strings(keys)
	return keys
}

// loadGolden reads goldenPath once; a missing file switches the binary to
// recording, with a nil map.
func loadGolden() (map[string]goldenEntry, error) {
	golden.load.Do(func() {
		buf, err := os.ReadFile(goldenPath)
		if errors.Is(err, fs.ErrNotExist) {
			golden.recorded = make(map[string]goldenEntry)
			return
		}
		if err == nil {
			err = json.Unmarshal(buf, &golden.want)
		}
		if err == nil && golden.want == nil {
			err = errors.New("holds no entries")
		}
		if err != nil {
			golden.loadErr = fmt.Errorf("%s: %w", goldenPath, err)
		}
	})
	return golden.want, golden.loadErr
}

// checkGolden compares one Workers=1 run against its golden entry, or
// records it when the golden file is missing. Only amd64 and 386 compare:
// Go never fuses multiply-add there (386 does its float64 arithmetic in
// SSE2), and on 386 the numeric kernels run their Go loops, so the file
// checks those end to end. Other architectures may fuse and round
// differently.
func checkGolden(t *testing.T, key, render string, counters []obs.CounterValue) {
	t.Helper()
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Logf("golden %s: comparison skipped on %s (digests are pinned on amd64 and 386, where Go never fuses multiply-add)", key, runtime.GOARCH)
		return
	}
	sum := sha256.Sum256([]byte(render))
	got := goldenEntry{Table: hex.EncodeToString(sum[:]), Counters: make(map[string]uint64, len(counters))}
	for _, c := range counters {
		got.Counters[c.Name] = c.Value
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if want == nil {
		golden.mu.Lock()
		golden.recorded[key] = got
		golden.mu.Unlock()
		t.Errorf("golden %s: recorded; review and commit %s", key, goldenPath)
		return
	}
	w, ok := want[key]
	if !ok {
		t.Fatalf("golden %s: no entry in %s; delete the file and rerun the golden tests to re-record", key, goldenPath)
	}
	if w.Table != got.Table {
		t.Errorf("golden %s: table digest %s → %s; the rendered table changed:\n%s", key, w.Table, got.Table, render)
	}
	names := make([]string, 0, len(w.Counters)+len(got.Counters))
	for name := range w.Counters {
		names = append(names, name)
	}
	for name := range got.Counters {
		if _, ok := w.Counters[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if o, n := w.Counters[name], got.Counters[name]; o != n {
			t.Errorf("golden %s: counter %s %d → %d", key, name, o, n)
		}
	}
}

// TestMain writes the golden file after a run that recorded every entry.
// A run that recorded only some (a -run filter) writes nothing, so the
// file is never committed incomplete.
func TestMain(m *testing.M) {
	code := m.Run()
	if len(golden.recorded) > 0 {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "golden:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeGolden() error {
	var missing []string
	for _, k := range goldenKeys() {
		if _, ok := golden.recorded[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("not writing %s: this run did not record %s; run `go test -run TestGolden ./internal/exp`",
			goldenPath, strings.Join(missing, ", "))
	}
	buf, err := json.MarshalIndent(golden.recorded, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "golden: recorded %d entries to %s; review and commit\n", len(golden.recorded), goldenPath)
	return nil
}

// TestGoldenCoverage keeps the golden file complete as the registry
// changes: its keys must be exactly goldenKeys(), so a new experiment
// without an entry, or an entry for a removed one, fails by name.
func TestGoldenCoverage(t *testing.T) {
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if want == nil {
		t.Skipf("%s is missing; the golden tests record it", goldenPath)
	}
	keys := make(map[string]bool, len(want))
	for k := range want {
		keys[k] = true
	}
	for _, k := range goldenKeys() {
		if !keys[k] {
			t.Errorf("golden: %s has no entry for %s; delete it and rerun the golden tests to re-record", goldenPath, k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("golden: %s has a stale entry %s that no golden test runs", goldenPath, k)
	}
}

// TestGoldenWorkerInvariance is the core determinism contract of the
// parallel harness: every registered experiment must render byte-identical
// tables at Workers=1 (the sequential legacy path), Workers=4, and
// Workers=GOMAXPROCS. Trials are pure functions of (experiment, cell,
// trial), so the worker count may only change scheduling, never results.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig()
			cfg.Workers = 1
			seq := goldenRender(t, e.ID, e, cfg)
			par := renderAt(t, e, 4, 1)
			if par != seq {
				t.Errorf("%s: Workers=4 differs from Workers=1:\n--- sequential\n%s--- parallel\n%s", e.ID, seq, par)
			}
			if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 4 {
				if got := renderAt(t, e, gmp, 1); got != seq {
					t.Errorf("%s: Workers=%d differs from Workers=1:\n--- sequential\n%s--- parallel\n%s", e.ID, gmp, seq, got)
				}
			}
		})
	}
}

// TestGoldenFaultInjection extends the worker-invariance contract to
// degraded sensing: tracking experiments run with a nonzero FaultConfig must
// still render byte-identical tables at Workers=1 and Workers=8. This is the
// regression guard for the fault layer's hash-based draws — a sequential
// shared fault stream would pass the clean golden suite and fail here.
func TestGoldenFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism suite skipped in -short mode")
	}
	for _, id := range goldenFaultIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			config := func(workers int) Config {
				cfg := goldenConfig()
				cfg.Workers = workers
				cfg.Fault = goldenFault
				return cfg
			}
			seq := goldenRender(t, "fault/"+id, e, config(1))
			par := renderCfg(t, e, config(8))
			if par != seq {
				t.Errorf("%s with faults: Workers=8 differs from Workers=1:\n--- sequential\n%s--- parallel\n%s", id, seq, par)
			}
		})
	}
}

// TestGoldenFieldHotspot pins the benchmark's field-hotspot shape at test
// size: fig7 and fig8a through a 2×2 tile grid with the coarse shortlist,
// the robust=both defense, 10% Byzantine sensors and goldenFault all on, so
// the entries cover shard routing, fingerprint databases, the robust second
// pass and the masked step together. fig7's tiles solve only one-user
// compositions; fig8a's reach the multi-variable NNLS solver.
func TestGoldenFieldHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism suite skipped in -short mode")
	}
	for _, id := range goldenHotspotIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenConfig()
			cfg.Workers = 1
			cfg.Shards = shard.Grid{Rows: 2, Cols: 2, Halo: 2}
			cfg.Coarse = fingerprint.CoarseConfig{Enabled: true, TopK: 24, GridRes: 10}
			cfg.Robust = fit.RobustConfig{Mode: fit.RobustBoth}
			cfg.Liars = 0.1
			cfg.Fault = goldenFault
			goldenRender(t, "field-hotspot/"+id, e, cfg)
		})
	}
}

// TestGoldenRerunIdentity reruns a cross-section of the pipelines in the
// same process and demands identical output. This is the regression guard
// for hidden shared state: the trace pipeline once paired users with
// stretch draws in map-iteration order, which made fig10a/fig10b disagree
// with themselves run-to-run (fixed by sorting users in buildTraceRun).
func TestGoldenRerunIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism suite skipped in -short mode")
	}
	for _, id := range []string{"fig10a", "fig7", "noise", "ablation-search"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			first := renderAt(t, e, 4, 1)
			second := renderAt(t, e, 4, 1)
			if first != second {
				t.Errorf("%s: same-seed rerun differs:\n--- first\n%s--- second\n%s", id, first, second)
			}
		})
	}
}

// TestGoldenCoarseFullAgreement pins the registry-level differential
// contract of the coarse-to-fine prestage: figCoarse's full-K row must
// report exactly 100.0% top-1 agreement with the exact search. At TopK =
// candidate count the shortlist is the identity and the coarse pipeline is
// byte-identical to the exact one, so any disagreement on that row is a
// determinism bug — never statistical noise.
func TestGoldenCoarseFullAgreement(t *testing.T) {
	cfg := goldenConfig()
	for _, seed := range []uint64{1, 2} {
		cfg.Seed = seed
		tbl, err := FigCoarse(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		last := tbl.Rows[len(tbl.Rows)-1]
		if last[0] != "full" {
			t.Fatalf("seed %d: final row is %q, want the full-K row", seed, last[0])
		}
		if last[2] != "100.0%" {
			t.Errorf("seed %d: full-K top-1 agreement = %s, want exactly 100.0%%\n%s",
				seed, last[2], tbl.Render())
		}
	}
}

// TestGoldenSeedSensitivity checks the other half of reproducibility: a
// different base seed must actually change the tables (all four pipelines
// here have continuous outputs, so collisions at 2-decimal rounding across
// a whole table would indicate the seed is being ignored).
func TestGoldenSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism suite skipped in -short mode")
	}
	for _, id := range []string{"fig5", "fig4", "noise", "fig7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			s1 := renderAt(t, e, 1, 1)
			s2 := renderAt(t, e, 1, 2)
			if s1 == s2 {
				t.Errorf("%s: seed 1 and seed 2 render identical tables:\n%s", id, s1)
			}
		})
	}
}
