package exp

import (
	"strconv"
	"strings"
	"testing"

	"fluxtrack/internal/fit"
)

// TestGoldenByzantine extends the worker-invariance contract to adversarial
// sensing: tracking experiments run with a Byzantine liar mix and the robust
// defense armed must still render byte-identical tables at Workers=1 and
// Workers=8. This is the regression guard for the adversary's hash-based
// draws and for the two-pass robust search — a sequential shared adversary
// stream, or a racy reweighting pass, would pass the clean golden suite and
// fail here.
func TestGoldenByzantine(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism suite skipped in -short mode")
	}
	for _, id := range goldenByzantineIDs {
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
				cfg.Liars = 0.2
				cfg.Robust = fit.RobustConfig{Mode: fit.RobustBoth}
				return cfg
			}
			seq := goldenRender(t, "byzantine/"+id, e, config(1))
			par := renderCfg(t, e, config(8))
			if par != seq {
				t.Errorf("%s with byzantine sensors: Workers=8 differs from Workers=1:\n--- sequential\n%s--- parallel\n%s", id, seq, par)
			}
		})
	}
}

// byzCell extracts the (mean_err, final_err) pair of the figByzantine row
// with the given liars and defense labels.
func byzCell(t *testing.T, tbl Table, liars, defense string) (float64, float64) {
	t.Helper()
	for _, row := range tbl.Rows {
		if row[0] == liars && row[1] == defense {
			mean, err := strconv.ParseFloat(strings.TrimSpace(row[2]), 64)
			if err != nil {
				t.Fatalf("row %v: bad mean_err: %v", row, err)
			}
			final, err := strconv.ParseFloat(strings.TrimSpace(row[3]), 64)
			if err != nil {
				t.Fatalf("row %v: bad final_err: %v", row, err)
			}
			return mean, final
		}
	}
	t.Fatalf("figByzantine has no row (%s, %s):\n%s", liars, defense, tbl.Render())
	return 0, 0
}

// TestDefenseRecoversAccuracy pins the headline claim of the robust-fitting
// defense: at 10% Byzantine sensors the defended tracker recovers most of
// the accuracy the plain fit loses. Every trial is deterministic and the
// liars/defense regimes share paired seeds, so the margins below are exact
// reproductions, not statistical bounds — they fail only if the adversary,
// the defense, or the seed plumbing changes behavior.
func TestDefenseRecoversAccuracy(t *testing.T) {
	tbl, err := FigByzantine(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	plainMean, plainFinal := byzCell(t, tbl, "10%", "plain")
	defMean, defFinal := byzCell(t, tbl, "10%", "both")
	if defMean > plainMean-2 {
		t.Errorf("both mean_err %.2f does not recover ≥2 units from plain %.2f at 10%% liars",
			defMean, plainMean)
	}
	if defFinal > plainFinal-2 {
		t.Errorf("both final_err %.2f does not recover ≥2 units from plain %.2f at 10%% liars",
			defFinal, plainFinal)
	}
}
