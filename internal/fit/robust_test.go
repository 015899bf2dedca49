package fit

import (
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRobustMode(t *testing.T) {
	cases := map[string]RobustMode{
		"": RobustOff, "off": RobustOff, "none": RobustOff, "both": RobustBoth,
	}
	for s, want := range cases {
		got, err := ParseRobustMode(s)
		if err != nil || got != want {
			t.Errorf("ParseRobustMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// Only off and both are modes: huber and loso fail like any typo.
	for _, s := range []string{"hubr", "huber", "loso"} {
		if _, err := ParseRobustMode(s); err == nil || !strings.Contains(err.Error(), "want off or both") {
			t.Errorf("ParseRobustMode(%q) error = %v, want an error naming off or both", s, err)
		}
	}
	for _, m := range []RobustMode{RobustOff, RobustBoth} {
		back, err := ParseRobustMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v -> %q -> %v, %v", m, m.String(), back, err)
		}
	}
}

// poisonedProblem builds a model-exact problem, then multiplies the readings
// of `liars` sensors by factor. Liars are picked in index order (so they
// scatter across the field) among sensors whose clean reading is material —
// at least 30% of the mean magnitude — because a lie on a sensor below the
// robust tests' noise floor q is both undetectable in principle and harmless
// to the fit. Because the clean measurements fit the model exactly, every
// nonzero residual at the true composition is the liars' doing. Returns the
// liar index set alongside the problem.
func poisonedProblem(t testing.TB, sinks []geom.Point, cs []float64, nSamples, liars int, factor float64, seed uint64) (*Problem, map[int]bool) {
	t.Helper()
	p, pts := modelProblem(t, sinks, cs, nSamples, seed)
	measured := p.Measured()
	var mean float64
	for _, v := range measured {
		mean += math.Abs(v)
	}
	mean /= float64(len(measured))
	liarSet := make(map[int]bool, liars)
	for i := range measured {
		if len(liarSet) == liars {
			break
		}
		if math.Abs(measured[i]) < 0.3*mean {
			continue
		}
		measured[i] *= factor
		liarSet[i] = true
	}
	if len(liarSet) < liars {
		t.Fatalf("only %d of %d requested liars have material readings", len(liarSet), liars)
	}
	p2, err := NewProblem(p.Model(), pts, measured)
	if err != nil {
		t.Fatal(err)
	}
	return p2, liarSet
}

// TestRobustMultipliersCleanData: on a model-exact problem the residuals at
// the true composition vanish, so the defense may not adjust anything.
func TestRobustMultipliersCleanData(t *testing.T) {
	sinks := []geom.Point{geom.Pt(10, 10), geom.Pt(22, 18)}
	p, _ := modelProblem(t, sinks, []float64{1.5, 2.5}, 90, 1)
	ev, err := p.Evaluate(sinks)
	if err != nil {
		t.Fatal(err)
	}
	mult, rep, err := NewSearcher().RobustMultipliers(p, ev, RobustConfig{Mode: RobustBoth})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adjusted {
		t.Error("clean data reported Adjusted")
	}
	for i, m := range mult {
		if m != 1 {
			t.Fatalf("clean data multiplier[%d] = %v", i, m)
		}
	}
}

// TestRobustMultipliersFlagPoisonedSensors: the defense must single out the
// inflated sensors — minimum multiplier among the liars, LOSO flags exactly
// within the liar set — and keep all multipliers in [multFloor, 1].
func TestRobustMultipliersFlagPoisonedSensors(t *testing.T) {
	sinks := []geom.Point{geom.Pt(10, 10), geom.Pt(22, 18)}
	liars := 9 // 10% of 90
	p, liarSet := poisonedProblem(t, sinks, []float64{1.5, 2.5}, 90, liars, 5, 1)
	ev, err := p.Evaluate(sinks)
	if err != nil {
		t.Fatal(err)
	}
	mult, rep, err := NewSearcher().RobustMultipliers(p, ev, RobustConfig{Mode: RobustBoth})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Adjusted {
		t.Fatal("poisoned data not adjusted")
	}
	var liarMax, honestMin float64 = 0, 1
	for i, m := range mult {
		if m < multFloor || m > 1 {
			t.Fatalf("multiplier[%d] = %v outside [%v, 1]", i, m, multFloor)
		}
		if liarSet[i] {
			liarMax = math.Max(liarMax, m)
		} else {
			honestMin = math.Min(honestMin, m)
		}
	}
	if liarMax >= honestMin {
		t.Errorf("worst liar multiplier %v not below best honest %v", liarMax, honestMin)
	}
	if liarMax > 0.5 {
		t.Errorf("liars kept multiplier %v, want < 0.5", liarMax)
	}
	if len(rep.Flagged) == 0 {
		t.Error("LOSO flagged nothing")
	}
	for _, i := range rep.Flagged {
		if !liarSet[i] {
			t.Errorf("LOSO flagged honest sensor %d", i)
		}
	}
}

// TestRobustMultipliersDeterminism: multipliers are a pure function of
// (problem, eval, config) — two searchers, same inputs, bit-identical output.
func TestRobustMultipliersDeterminism(t *testing.T) {
	sinks := []geom.Point{geom.Pt(8, 20), geom.Pt(24, 9)}
	p, _ := poisonedProblem(t, sinks, []float64{2, 1.2}, 120, 12, 4, 3)
	ev, err := p.Evaluate(sinks)
	if err != nil {
		t.Fatal(err)
	}
	rc := RobustConfig{Mode: RobustBoth}
	m1, rep1, err := NewSearcher().RobustMultipliers(p, ev, rc)
	if err != nil {
		t.Fatal(err)
	}
	m2, rep2, err := NewSearcher().RobustMultipliers(p, ev, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("multiplier[%d] differs: %v vs %v", i, m1[i], m2[i])
		}
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("reports differ: %+v vs %+v", rep1, rep2)
	}
}

// TestRobustSearchCleanIdentity: over clean data a robust search must return
// the plain search's result untouched (the Adjusted short-circuit).
func TestRobustSearchCleanIdentity(t *testing.T) {
	sinks := []geom.Point{geom.Pt(10, 10), geom.Pt(22, 18)}
	p, _ := modelProblem(t, sinks, []float64{1.5, 2.5}, 90, 1)
	src := rng.New(9)
	cands := make([][]geom.Point, 2)
	for j := range cands {
		cands[j] = make([]geom.Point, 80)
		for i := range cands[j] {
			cands[j][i] = src.InRect(p.Model().Field())
		}
		cands[j][0] = sinks[j] // make sure a good composition exists
	}
	plain, err := SearchCandidates(p, cands, Options{TopM: 5})
	if err != nil {
		t.Fatal(err)
	}
	rob, err := SearchCandidates(p, cands, Options{TopM: 5, Robust: RobustConfig{Mode: RobustBoth}})
	if err != nil {
		t.Fatal(err)
	}
	if rob.Best[0].Objective != plain.Best[0].Objective {
		t.Errorf("clean-data robust objective %v != plain %v",
			rob.Best[0].Objective, plain.Best[0].Objective)
	}
	for j, pos := range rob.Best[0].Positions {
		if pos != plain.Best[0].Positions[j] {
			t.Errorf("clean-data robust position %d differs: %v vs %v",
				j, pos, plain.Best[0].Positions[j])
		}
	}
}

// TestRobustSearchWorkerInvariance: the two-pass robust search must return
// bit-identical results at any worker count — the contract that lets
// internal/exp thread Robust through its golden suite unchanged.
func TestRobustSearchWorkerInvariance(t *testing.T) {
	sinks := []geom.Point{geom.Pt(10, 10), geom.Pt(22, 18)}
	p, _ := poisonedProblem(t, sinks, []float64{1.5, 2.5}, 90, 9, 5, 1)
	src := rng.New(4)
	cands := make([][]geom.Point, 2)
	for j := range cands {
		cands[j] = make([]geom.Point, 120)
		for i := range cands[j] {
			cands[j][i] = src.InRect(p.Model().Field())
		}
	}
	opts := Options{TopM: 5, Robust: RobustConfig{Mode: RobustBoth}}
	var ref Result
	for _, workers := range []int{1, 4, 8} {
		o := opts
		o.Workers = workers
		res, err := SearchCandidates(p, cands, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = res
			continue
		}
		if res.Best[0].Objective != ref.Best[0].Objective {
			t.Errorf("workers=%d: objective %v != sequential %v",
				workers, res.Best[0].Objective, ref.Best[0].Objective)
		}
		for j, pos := range res.Best[0].Positions {
			if pos != ref.Best[0].Positions[j] {
				t.Errorf("workers=%d: position %d = %v != sequential %v",
					workers, j, pos, ref.Best[0].Positions[j])
			}
		}
	}
}

// TestRobustLocalizeRecoversFromLiars: with 10% of sensors inflating 5x, the
// defended localization must land closer to the true sinks than the plain
// one on the same problem and candidate draws. Everything is deterministic,
// so the margin is pinned, not statistical.
func TestRobustLocalizeRecoversFromLiars(t *testing.T) {
	sinks := []geom.Point{geom.Pt(10, 10), geom.Pt(22, 18)}
	meanErr := func(res Result) float64 {
		sum := 0.0
		for _, est := range res.Best[0].Positions {
			d := math.Inf(1)
			for _, s := range sinks {
				d = math.Min(d, est.Dist(s))
			}
			sum += d
		}
		return sum / float64(len(res.Best[0].Positions))
	}
	var plainTotal, robustTotal float64
	for seed := uint64(1); seed <= 3; seed++ {
		p, _ := poisonedProblem(t, sinks, []float64{1.5, 2.5}, 90, 9, 5, seed)
		plain, err := Localize(p, 2, Options{Samples: 400, TopM: 5, Seed: seed}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rob, err := Localize(p, 2, Options{Samples: 400, TopM: 5, Seed: seed,
			Robust: RobustConfig{Mode: RobustBoth}}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		plainTotal += meanErr(plain)
		robustTotal += meanErr(rob)
	}
	if robustTotal >= plainTotal {
		t.Errorf("robust fit error %.3f did not beat plain %.3f under 10%% liars", robustTotal, plainTotal)
	}
}
