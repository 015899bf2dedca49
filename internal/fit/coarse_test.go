package fit

import (
	"reflect"
	"strings"
	"testing"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
)

// Differential suite for the coarse-to-fine prestage: with K = full
// candidate count the shortlisted pipeline must reproduce the exact search
// byte for byte, and at realistic K the top-1 agreement with the exact
// search must stay above the pinned floor below.

// Pinned differential tolerances, measured on the checked-in seeds at the
// default grid resolution (24) and shortlist size (64 of 400 candidates):
// per-user top-1 agreement 39/40 = 0.975 and a worst-case best-objective
// ratio of 1.117 versus the exact search (K=96 and up measured 1.000 and
// 1.0 respectively). The floors below leave headroom for legitimate
// objective near-ties without letting a real prestage regression through.
const (
	coarseAgreeTopK     = 64
	coarseAgreeSamples  = 400
	coarseAgreeTrials   = 20
	coarseAgreeMinRate  = 0.90
	coarseAgreeGridRes  = 24
	coarseObjWorseLimit = 1.25 // coarse best objective ≤ 125% of exact
)

// randomCandidates draws per-user candidate lists uniformly over the field.
func randomCandidates(field geom.Rect, users, n int, src *rng.Source) [][]geom.Point {
	cands := make([][]geom.Point, users)
	for j := range cands {
		cands[j] = make([]geom.Point, n)
		for i := range cands[j] {
			cands[j][i] = src.InRect(field)
		}
	}
	return cands
}

func coarseDB(t *testing.T, p *Problem, pts []geom.Point, res int) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(p.Model(), pts, fingerprint.CoarseConfig{GridRes: res}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCoarseFullKByteIdentical is the core differential property: for
// randomized scenarios — plain, weighted, masked, exhaustive and
// conditional, serial and parallel — the coarse pipeline with TopK equal to
// (or exceeding) the candidate count returns a Result that is deeply equal
// to the exact search's, including every objective bit and every ranking
// index. The coarse path is exercised in full (cell scoring, cell
// lookups, selection, remap), not short-circuited.
// scoreSignature is scoreSignatureRHS against the problem's weighted
// observation.
func (p *Problem) scoreSignature(col []float64) float64 {
	score, _ := p.scoreSignatureRHS(col, p.wb)
	return score
}

func TestCoarseFullKByteIdentical(t *testing.T) {
	type variant struct {
		name          string
		weighted      bool
		masked        bool
		maxExhaustive int // 0 keeps the default (exhaustive path)
		workers       int
		topKExtra     int // added to the candidate count
	}
	variants := []variant{
		{name: "plain"},
		{name: "weighted", weighted: true},
		{name: "masked", masked: true, weighted: true},
		{name: "conditional", maxExhaustive: 50},
		{name: "parallel", workers: 4},
		{name: "overshoot", topKExtra: 50, workers: 2},
	}
	for vi, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				seed := uint64(100*vi + trial + 1)
				sinks := []geom.Point{geom.Pt(8, 11), geom.Pt(21, 19)}
				stretches := []float64{1.5, 2.2}
				base, pts := modelProblem(t, sinks, stretches, 60, seed)
				p := base
				if v.weighted || v.masked {
					measured := base.Measured()
					var present []bool
					if v.masked {
						present = make([]bool, len(pts))
						msrc := rng.New(seed ^ 0xdead)
						kept := 0
						for i := range present {
							present[i] = msrc.Float64() < 0.7
							if present[i] {
								kept++
							}
						}
						if kept == 0 {
							present[0] = true
						}
					}
					var weights []float64
					if v.weighted {
						weights = RelativeWeights(measured)
					}
					var err error
					p, err = NewProblemMasked(base.Model(), pts, measured, weights, present)
					if err != nil {
						t.Fatal(err)
					}
				}
				src := rng.New(seed ^ 0xc0ffee)
				cands := randomCandidates(base.Model().Field(), 2, 80, src)
				db := coarseDB(t, p, pts, 12)

				opts := Options{Seed: seed, Workers: v.workers, MaxExhaustive: v.maxExhaustive}
				exact, err := NewSearcher().Search(p, cands, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Coarse = &Coarse{DB: db, TopK: len(cands[0]) + v.topKExtra}
				coarse, err := NewSearcher().Search(p, cands, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(exact, coarse) {
					t.Fatalf("trial %d: coarse K=full differs from exact:\nexact  %+v\ncoarse %+v",
						trial, exact, coarse)
				}
			}
		})
	}
}

// TestCoarseTop1Agreement measures the per-user top-1 agreement between the
// shortlisted search at the default realistic K and the exact search, and
// pins it against the checked-in floor. It also bounds how much worse the
// coarse best objective may be.
func TestCoarseTop1Agreement(t *testing.T) {
	if testing.Short() {
		t.Skip("differential agreement sweep")
	}
	agree, total := 0, 0
	for trial := 0; trial < coarseAgreeTrials; trial++ {
		seed := uint64(7000 + trial)
		sinks := []geom.Point{geom.Pt(6+float64(trial), 9), geom.Pt(24, 22-float64(trial)/2)}
		stretches := []float64{1.8, 2.4}
		p, pts := modelProblem(t, sinks, stretches, 60, seed)
		src := rng.New(seed ^ 0xabcd)
		cands := randomCandidates(p.Model().Field(), 2, coarseAgreeSamples, src)
		db := coarseDB(t, p, pts, coarseAgreeGridRes)

		opts := Options{Seed: seed}
		exact, err := NewSearcher().Search(p, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Coarse = &Coarse{DB: db, TopK: coarseAgreeTopK}
		coarse, err := NewSearcher().Search(p, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range exact.PerUser {
			total++
			if exact.PerUser[j][0].Index == coarse.PerUser[j][0].Index {
				agree++
			}
		}
		if eb, cb := exact.Best[0].Objective, coarse.Best[0].Objective; cb > eb*coarseObjWorseLimit {
			t.Errorf("trial %d: coarse best objective %v exceeds %v×exact (%v)",
				trial, cb, coarseObjWorseLimit, eb)
		}
	}
	rate := float64(agree) / float64(total)
	t.Logf("top-1 agreement: %d/%d = %.3f (floor %.2f, K=%d of %d)",
		agree, total, rate, coarseAgreeMinRate, coarseAgreeTopK, coarseAgreeSamples)
	if rate < coarseAgreeMinRate {
		t.Fatalf("top-1 agreement %.3f below pinned floor %.2f", rate, coarseAgreeMinRate)
	}
}

// TestCoarseShortlistTieBreak pins the prestage's determinism on fully
// degenerate scores: a zero observation scores every cell 0, so the
// shortlist must be exactly the first TopK candidate indices in order.
func TestCoarseShortlistTieBreak(t *testing.T) {
	p, pts := modelProblem(t, []geom.Point{geom.Pt(15, 15)}, []float64{0}, 40, 3)
	src := rng.New(99)
	cands := randomCandidates(p.Model().Field(), 1, 50, src)
	db := coarseDB(t, p, pts, 8)
	s := NewSearcher()
	_, err := s.Search(p, cands, Options{Coarse: &Coarse{DB: db, TopK: 10}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(s.coarseIdx[0], want) {
		t.Fatalf("degenerate shortlist = %v, want %v", s.coarseIdx[0], want)
	}
}

// TestCoarseShortlistIsTopKByScore checks the selection invariant directly:
// every shortlisted candidate's cell score is at least as high as every
// excluded candidate's, and within equal scores the shortlist holds the
// lower indices.
func TestCoarseShortlistIsTopKByScore(t *testing.T) {
	sinks := []geom.Point{geom.Pt(12, 9)}
	p, pts := modelProblem(t, sinks, []float64{2}, 50, 11)
	src := rng.New(17)
	cands := randomCandidates(p.Model().Field(), 1, 120, src)
	db := coarseDB(t, p, pts, 10)
	s := NewSearcher()
	const topK = 24
	if _, err := s.Search(p, cands, Options{Coarse: &Coarse{DB: db, TopK: topK}}); err != nil {
		t.Fatal(err)
	}
	short := s.coarseIdx[0]
	if len(short) != topK {
		t.Fatalf("shortlist size %d, want %d", len(short), topK)
	}
	inShort := make(map[int]bool, topK)
	for _, i := range short {
		inShort[i] = true
	}
	score := func(i int) float64 { return p.scoreSignature(db.Column(db.CellOf(cands[0][i]))) }
	for i := range cands[0] {
		if inShort[i] {
			continue
		}
		for _, si := range short {
			ss, es := score(si), score(i)
			if ss < es || (ss == es && si > i) {
				t.Fatalf("excluded candidate %d (score %v) beats shortlisted %d (score %v)", i, es, si, ss)
			}
		}
	}
}

// TestCoarseDBMismatch: a database built over a different sample layout
// must be rejected, for both unmasked and masked problems.
func TestCoarseDBMismatch(t *testing.T) {
	p, pts := modelProblem(t, []geom.Point{geom.Pt(10, 10)}, []float64{1}, 30, 5)
	db, err := fingerprint.NewDB(p.Model(), pts[:20], fingerprint.CoarseConfig{GridRes: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := randomCandidates(p.Model().Field(), 1, 10, rng.New(1))
	_, err = NewSearcher().Search(p, cands, Options{Coarse: &Coarse{DB: db}})
	if err == nil || !strings.Contains(err.Error(), "sample points") {
		t.Fatalf("mismatched db accepted: %v", err)
	}
	if _, err := NewSearcher().Search(p, cands, Options{Coarse: &Coarse{}}); err == nil {
		t.Fatal("nil db accepted")
	}

	// Masked problems align through origIdx: a db over the FULL layout is
	// accepted even though the problem compacted its samples, and the
	// full-K result matches the exact search.
	present := make([]bool, len(pts))
	for i := range present {
		present[i] = i%3 != 0
	}
	mp, err := NewProblemMasked(p.Model(), pts, p.Measured(), nil, present)
	if err != nil {
		t.Fatal(err)
	}
	fullDB := coarseDB(t, p, pts, 6)
	exact, err := NewSearcher().Search(mp, cands, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := NewSearcher().Search(mp, cands, Options{Seed: 2, Coarse: &Coarse{DB: fullDB, TopK: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, coarse) {
		t.Fatal("masked coarse K=full differs from exact")
	}
	// And a db sized to the COMPACTED count must be rejected for the
	// masked problem: columns would misalign with the original layout.
	if _, err := NewSearcher().Search(mp, cands, Options{Coarse: &Coarse{DB: db}}); err == nil {
		t.Fatal("compact-sized db accepted for masked problem")
	}
}

// TestCoarseWorkerInvariance: the coarse pipeline at realistic K is
// byte-identical at any worker count, including the counter totals.
func TestCoarseWorkerInvariance(t *testing.T) {
	p, pts := modelProblem(t, []geom.Point{geom.Pt(9, 14), geom.Pt(23, 20)}, []float64{1.4, 2.1}, 60, 21)
	src := rng.New(77)
	cands := randomCandidates(p.Model().Field(), 2, 150, src)
	db := coarseDB(t, p, pts, 12)
	run := func(workers int) Result {
		res, err := NewSearcher().Search(p, cands, Options{
			Seed: 5, Workers: workers, Coarse: &Coarse{DB: db, TopK: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{2, 4, 8, 0} {
		if got := run(w); !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: coarse result differs from serial", w)
		}
	}
}

// TestCoarseCounters pins the deterministic coarse work counters: probes
// equal the candidate total, shortlist and avoided partition it.
func TestCoarseCounters(t *testing.T) {
	p, pts := modelProblem(t, []geom.Point{geom.Pt(11, 11)}, []float64{2}, 40, 8)
	cands := randomCandidates(p.Model().Field(), 2, 100, rng.New(3))
	db := coarseDB(t, p, pts, 8)
	m := obs.New(1)
	_, err := NewSearcher().Search(p, cands, Options{
		Metrics: m, Coarse: &Coarse{DB: db, TopK: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		want uint64
	}{
		{"fit.coarse.knn_probes", 200},
		{"fit.coarse.shortlist", 60},
		{"fit.coarse.exact_avoided", 140},
		{"fit.search.columns", 60}, // only shortlisted columns are filled
	}
	for _, c := range checks {
		if got := m.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
