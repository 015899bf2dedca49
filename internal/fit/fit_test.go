package fit

import (
	"math"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// RelativeWeights returns relative-error weights for NewProblemWeighted:
// w_i = 1/(F′_i + q) with q = 0.2·mean(F′) + 1, which turns the objective
// into (approximately) a relative-error fit and keeps near-sink readings
// from dominating. No experiment or tracker uses them (the evaluation fits
// unweighted, apart from the tracker's deflation of stale readings and the
// robust defense's reweighting); the tests use them as a realistic
// non-uniform weighting.
func RelativeWeights(measured []float64) []float64 {
	var mean float64
	for _, f := range measured {
		mean += f
	}
	if len(measured) > 0 {
		mean /= float64(len(measured))
	}
	q := 0.2*mean + 1
	ws := make([]float64, len(measured))
	for i, f := range measured {
		ws[i] = 1 / (math.Max(f, 0) + q)
	}
	return ws
}

// Model returns the flux model of the problem.
func (p *Problem) Model() *fluxmodel.Model { return p.model }

// NumSamples returns the number of sniffed nodes.
func (p *Problem) NumSamples() int { return len(p.points) }

// Evaluate fits the stretch factors for the given candidate positions and
// returns the minimized objective (Equation 4.1 with c solved in closed
// form by NNLS). Callers evaluating repeatedly should hold a Searcher and
// use its Evaluate method, which reuses the evaluation buffers.
func (p *Problem) Evaluate(positions []geom.Point) (Eval, error) {
	var s Searcher
	return s.Evaluate(p, positions)
}

// Evaluate is Problem.Evaluate running in the Searcher's reusable buffers:
// after warm-up only the returned Eval allocates.
func (s *Searcher) Evaluate(p *Problem, positions []geom.Point) (Eval, error) {
	return s.EvaluateWorkers(p, positions, 1)
}

// MeanPosition returns the average of the ranked positions, the "report of
// the majority" the paper uses to aggregate the top-M predictions.
func MeanPosition(ranked []RankedPosition) (geom.Point, bool) {
	if len(ranked) == 0 {
		return geom.Point{}, false
	}
	var x, y float64
	for _, r := range ranked {
		x += r.Pos.X
		y += r.Pos.Y
	}
	n := float64(len(ranked))
	return geom.Pt(x/n, y/n), true
}

// modelProblem builds a synthetic Problem whose measurements come straight
// from the flux model for the given true sinks and stretch factors, so a
// perfect fit exists by construction.
func modelProblem(t testing.TB, sinks []geom.Point, cs []float64, nSamples int, seed uint64) (*Problem, []geom.Point) {
	t.Helper()
	m, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	pts := make([]geom.Point, nSamples)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	measured, err := m.PredictFlux(sinks, cs, pts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(m, pts, measured)
	if err != nil {
		t.Fatal(err)
	}
	return p, pts
}

func TestNewProblemValidation(t *testing.T) {
	m, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(nil, []geom.Point{{}}, []float64{1}); err == nil {
		t.Error("nil model must error")
	}
	if _, err := NewProblem(m, nil, nil); err == nil {
		t.Error("empty points must error")
	}
	if _, err := NewProblem(m, []geom.Point{{}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestEvaluateTrueCompositionIsOptimal(t *testing.T) {
	sinks := []geom.Point{geom.Pt(10, 10), geom.Pt(22, 18)}
	cs := []float64{1.5, 2.5}
	p, _ := modelProblem(t, sinks, cs, 90, 1)

	ev, err := p.Evaluate(sinks)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Objective > 1e-6 {
		t.Errorf("objective at truth = %v, want ~0", ev.Objective)
	}
	for j := range cs {
		if math.Abs(ev.Stretches[j]-cs[j]) > 1e-6 {
			t.Errorf("stretch[%d] = %v, want %v", j, ev.Stretches[j], cs[j])
		}
	}
	// A perturbed composition must score strictly worse.
	worse, err := p.Evaluate([]geom.Point{geom.Pt(5, 25), geom.Pt(25, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if worse.Objective <= ev.Objective {
		t.Errorf("wrong composition objective %v <= true %v", worse.Objective, ev.Objective)
	}
}

func TestEvaluateEmptyPositions(t *testing.T) {
	p, _ := modelProblem(t, []geom.Point{geom.Pt(10, 10)}, []float64{1}, 20, 2)
	if _, err := p.Evaluate(nil); err == nil {
		t.Error("empty positions must error")
	}
}

func TestLocalizeSingleUser(t *testing.T) {
	truth := geom.Pt(14, 17)
	p, _ := modelProblem(t, []geom.Point{truth}, []float64{2}, 90, 3)
	res, err := Localize(p, 1, Options{Samples: 3000, TopM: 10}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Fatal("no results")
	}
	got := res.Best[0].Positions[0]
	if d := got.Dist(truth); d > 1.0 {
		t.Errorf("best position %v is %.2f from truth %v, want <= 1.0", got, d, truth)
	}
	// The mean of the top-M should also be close (majority aggregation).
	mean, ok := MeanPosition(res.PerUser[0])
	if !ok {
		t.Fatal("no per-user ranking")
	}
	if d := mean.Dist(truth); d > 1.5 {
		t.Errorf("mean top-M position %v is %.2f from truth, want <= 1.5", mean, d)
	}
}

func TestLocalizeTwoUsers(t *testing.T) {
	truths := []geom.Point{geom.Pt(8, 9), geom.Pt(23, 21)}
	p, _ := modelProblem(t, truths, []float64{1.5, 2.5}, 90, 5)
	res, err := Localize(p, 2, Options{Samples: 2500, TopM: 10}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best[0].Positions
	// Match each estimate to its nearest truth (identities are exchangeable).
	d1 := math.Min(best[0].Dist(truths[0]), best[0].Dist(truths[1]))
	d2 := math.Min(best[1].Dist(truths[0]), best[1].Dist(truths[1]))
	if d1 > 1.5 || d2 > 1.5 {
		t.Errorf("two-user localization errors %.2f, %.2f exceed 1.5 (positions %v)", d1, d2, best)
	}
}

func TestSearchCandidatesExhaustiveSmall(t *testing.T) {
	truths := []geom.Point{geom.Pt(10, 10), geom.Pt(20, 20)}
	p, _ := modelProblem(t, truths, []float64{2, 1}, 60, 7)
	// Candidate grids that include the truths.
	c1 := []geom.Point{geom.Pt(10, 10), geom.Pt(5, 5), geom.Pt(25, 25)}
	c2 := []geom.Point{geom.Pt(15, 15), geom.Pt(20, 20), geom.Pt(28, 3)}
	res, err := SearchCandidates(p, [][]geom.Point{c1, c2}, Options{TopM: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhaustive {
		t.Error("small instance must use exhaustive enumeration")
	}
	if res.Best[0].Positions[0] != truths[0] || res.Best[0].Positions[1] != truths[1] {
		t.Errorf("best composition = %v, want truths %v", res.Best[0].Positions, truths)
	}
	if res.Best[0].Objective > 1e-6 {
		t.Errorf("best objective = %v, want ~0", res.Best[0].Objective)
	}
	// Rankings are sorted ascending.
	for j, ranked := range res.PerUser {
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Objective < ranked[i-1].Objective {
				t.Errorf("user %d ranking not sorted", j)
			}
		}
	}
}

func TestConditionalMatchesExhaustive(t *testing.T) {
	// Ablation A1's core claim: on instances small enough to enumerate, the
	// iterated conditional search finds the same best composition.
	truths := []geom.Point{geom.Pt(9, 12), geom.Pt(21, 19)}
	p, _ := modelProblem(t, truths, []float64{2, 2}, 60, 8)
	src := rng.New(9)
	c1 := make([]geom.Point, 12)
	c2 := make([]geom.Point, 12)
	for i := range c1 {
		c1[i] = src.InRect(p.Model().Field())
		c2[i] = src.InRect(p.Model().Field())
	}
	c1[7] = truths[0] // plant the truths among the candidates
	c2[3] = truths[1]

	exh, err := SearchCandidates(p, [][]geom.Point{c1, c2}, Options{TopM: 5, MaxExhaustive: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := SearchCandidates(p, [][]geom.Point{c1, c2}, Options{TopM: 5, MaxExhaustive: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !exh.Exhaustive || cond.Exhaustive {
		t.Fatalf("search mode selection wrong: exh=%v cond=%v", exh.Exhaustive, cond.Exhaustive)
	}
	if math.Abs(exh.Best[0].Objective-cond.Best[0].Objective) > 1e-9 {
		t.Errorf("conditional best objective %v != exhaustive %v",
			cond.Best[0].Objective, exh.Best[0].Objective)
	}
}

func TestSearchCandidatesValidation(t *testing.T) {
	p, _ := modelProblem(t, []geom.Point{geom.Pt(10, 10)}, []float64{1}, 20, 10)
	if _, err := SearchCandidates(p, nil, Options{}); err == nil {
		t.Error("no users must error")
	}
	if _, err := SearchCandidates(p, [][]geom.Point{{}}, Options{}); err == nil {
		t.Error("empty candidate list must error")
	}
	if _, err := Localize(p, 0, Options{}, rng.New(1)); err == nil {
		t.Error("zero users must error")
	}
}

func TestStretchZeroDetectsIdleUser(t *testing.T) {
	// Fit two users when only one is active: the second fitted stretch must
	// collapse toward zero (the asynchronous-updating signal of §4.E).
	truth := geom.Pt(15, 15)
	p, _ := modelProblem(t, []geom.Point{truth}, []float64{2}, 90, 11)
	ev, err := p.Evaluate([]geom.Point{truth, geom.Pt(25, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stretches[0] < 1.9 || ev.Stretches[0] > 2.1 {
		t.Errorf("active stretch = %v, want ~2", ev.Stretches[0])
	}
	if ev.Stretches[1] > 0.05 {
		t.Errorf("idle stretch = %v, want ~0", ev.Stretches[1])
	}
}

func TestMeanPosition(t *testing.T) {
	ranked := []RankedPosition{
		{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(2, 4)},
	}
	mean, ok := MeanPosition(ranked)
	if !ok || mean != geom.Pt(1, 2) {
		t.Errorf("MeanPosition = %v, %v; want (1,2), true", mean, ok)
	}
	if _, ok := MeanPosition(nil); ok {
		t.Error("MeanPosition(nil) must report not ok")
	}
}

func TestInsertTopM(t *testing.T) {
	var best []Eval
	for _, obj := range []float64{5, 3, 8, 1, 4} {
		best = insertTopM(best, Eval{Objective: obj}, 3)
	}
	want := []float64{1, 3, 4}
	if len(best) != 3 {
		t.Fatalf("len = %d, want 3", len(best))
	}
	for i, w := range want {
		if best[i].Objective != w {
			t.Errorf("best[%d] = %v, want %v", i, best[i].Objective, w)
		}
	}
}

func TestProblemAccessors(t *testing.T) {
	p, pts := modelProblem(t, []geom.Point{geom.Pt(10, 10)}, []float64{1}, 25, 15)
	if p.NumSamples() != 25 || len(pts) != 25 {
		t.Errorf("NumSamples = %d, want 25", p.NumSamples())
	}
	meas := p.Measured()
	meas[0] = -999
	if p.Measured()[0] == -999 {
		t.Error("Measured returned aliasing storage")
	}
	if p.Model() == nil {
		t.Error("Model returned nil")
	}
	if len(p.KernelColumn(geom.Pt(15, 15))) != 25 {
		t.Error("KernelColumn length mismatch")
	}
}

func BenchmarkEvaluate3Users90Samples(b *testing.B) {
	sinks := []geom.Point{geom.Pt(5, 5), geom.Pt(15, 20), geom.Pt(25, 10)}
	p, _ := modelProblem(b, sinks, []float64{1, 2, 3}, 90, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(sinks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalizeSingleUser(b *testing.B) {
	p, _ := modelProblem(b, []geom.Point{geom.Pt(14, 17)}, []float64{2}, 90, 17)
	src := rng.New(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Localize(p, 1, Options{Samples: 500, TopM: 10}, src); err != nil {
			b.Fatal(err)
		}
	}
}
