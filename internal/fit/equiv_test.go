package fit

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/oracle"
	"fluxtrack/internal/rng"
)

// referenceEvaluate is the pre-Gram evaluation path, kept verbatim as the
// numerical reference: build the weighted n×k matrix, weight the
// measurement, run the QR-based Lawson-Hanson NNLS, and measure the
// residual norm. The production evaluator must reproduce its objectives and
// stretches to solver tolerance (the passive-set sub-solver changed from QR
// on the columns to Cholesky on the Gram matrix, so agreement is to
// floating-point conditioning, not bit-for-bit).
func referenceEvaluate(p *Problem, positions []geom.Point) (Eval, error) {
	cols := make([][]float64, len(positions))
	for j, pos := range positions {
		cols[j] = p.KernelColumn(pos)
	}
	n, k := len(p.points), len(positions)
	a := mat.NewDense(n, k)
	b := p.measured
	if p.weights != nil {
		b = make([]float64, n)
		for i, w := range p.weights {
			b[i] = w * p.measured[i]
		}
	}
	for j, col := range cols {
		for i, v := range col {
			if p.weights != nil {
				v *= p.weights[i]
			}
			a.Set(i, j, v)
		}
	}
	cs, err := oracle.NNLS(a, b)
	if err != nil {
		return Eval{}, err
	}
	pred, err := a.MulVec(cs)
	if err != nil {
		return Eval{}, err
	}
	return Eval{
		Positions: append([]geom.Point(nil), positions...),
		Stretches: cs,
		Objective: mat.Norm2(mat.Sub(pred, b)),
	}, nil
}

// randomEquivProblem builds a problem with measurements generated from a
// random ground-truth composition plus noise, over random sample points.
func randomEquivProblem(t *testing.T, src *rng.Source, weighted bool) (*Problem, geom.Rect) {
	t.Helper()
	field := geom.Square(30)
	model, err := fluxmodel.New(field, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	n := 8 + src.IntN(25)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.InRect(field)
	}
	kTrue := 1 + src.IntN(3)
	measured := make([]float64, n)
	for u := 0; u < kTrue; u++ {
		sink := src.InRect(field)
		c := src.Uniform(0.5, 3)
		col := model.KernelVector(sink, pts)
		for i := range measured {
			measured[i] += c * col[i]
		}
	}
	for i := range measured {
		measured[i] *= 1 + 0.1*src.Norm()
		measured[i] = math.Max(measured[i], 0)
	}
	var weights []float64
	if weighted {
		weights = RelativeWeights(measured)
	}
	p, err := NewProblemWeighted(model, pts, measured, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p, field
}

// TestGramEvaluatorMatchesReference: across randomized problems (k = 1..4,
// weighted and unweighted), the Gram-cached evaluator produces the same
// Objective and Stretches as the pre-PR-2 QR path.
func TestGramEvaluatorMatchesReference(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 300; trial++ {
		weighted := trial%2 == 0
		p, field := randomEquivProblem(t, src, weighted)
		k := 1 + trial%4
		positions := make([]geom.Point, k)
		for j := range positions {
			positions[j] = src.InRect(field)
		}

		want, err := referenceEvaluate(p, positions)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := p.Evaluate(positions)
		if err != nil {
			t.Fatalf("trial %d: Evaluate: %v", trial, err)
		}

		scale := 1 + want.Objective
		if d := math.Abs(got.Objective - want.Objective); d > 1e-8*scale {
			t.Errorf("trial %d (k=%d weighted=%v): objective %v, reference %v (diff %v)",
				trial, k, weighted, got.Objective, want.Objective, d)
		}
		for j := range want.Stretches {
			if d := math.Abs(got.Stretches[j] - want.Stretches[j]); d > 1e-6*(1+math.Abs(want.Stretches[j])) {
				t.Errorf("trial %d (k=%d weighted=%v): stretch[%d] = %v, reference %v",
					trial, k, weighted, j, got.Stretches[j], want.Stretches[j])
			}
		}
	}
}

// TestGramEvaluatorDegenerateComposition: duplicated positions (identical
// columns, a singular Gram matrix) must stay finite and match the reference
// objective — the active-set solver drops the dependent column exactly like
// the QR path declared it singular.
func TestGramEvaluatorDegenerateComposition(t *testing.T) {
	src := rng.New(7)
	p, field := randomEquivProblem(t, src, false)
	pos := src.InRect(field)
	positions := []geom.Point{pos, pos, src.InRect(field)}
	want, err := referenceEvaluate(p, positions)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Evaluate(positions)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got.Objective) || got.Objective < 0 {
		t.Fatalf("degenerate composition objective = %v", got.Objective)
	}
	if d := math.Abs(got.Objective - want.Objective); d > 1e-8*(1+want.Objective) {
		t.Errorf("degenerate composition: objective %v, reference %v", got.Objective, want.Objective)
	}
}

// TestGramEvaluatorDeterministic: evaluating the same composition twice —
// and through differently-warmed scratches — yields bit-identical results.
// This is the property the worker-invariance of the search rests on.
func TestGramEvaluatorDeterministic(t *testing.T) {
	src := rng.New(55)
	p, field := randomEquivProblem(t, src, true)
	positions := []geom.Point{src.InRect(field), src.InRect(field), src.InRect(field)}
	first, err := p.Evaluate(positions)
	if err != nil {
		t.Fatal(err)
	}
	// A searcher pre-warmed on a different composition must agree exactly.
	s := NewSearcher()
	if _, err := s.Evaluate(p, []geom.Point{src.InRect(field), src.InRect(field)}); err != nil {
		t.Fatal(err)
	}
	second, err := s.Evaluate(p, positions)
	if err != nil {
		t.Fatal(err)
	}
	if first.Objective != second.Objective {
		t.Errorf("objective not deterministic: %v vs %v", first.Objective, second.Objective)
	}
	for j := range first.Stretches {
		if first.Stretches[j] != second.Stretches[j] {
			t.Errorf("stretch[%d] not deterministic: %v vs %v", j, first.Stretches[j], second.Stretches[j])
		}
	}
}

// refConditional is the memo-free reference of searchConditional: the same
// restart permutations, greedy order, sweeps and evalScratch slot layout
// (fixed users in user order, the scanned user last), but every scan solves
// all of its candidates afresh and ranks them with a full sort. It runs in a
// scratch of its own over the candidate caches s.prepare built, and returns
// the NNLS solves it made and whether some restart had a non-final sweep
// that moved no incumbent — after which every later scan repeats a key.
func refConditional(s *Searcher, p *Problem, candidates [][]geom.Point, opts Options) (res Result, solves uint64, converged bool) {
	opts = opts.withDefaults()
	k := len(candidates)
	sc := &evalScratch{}
	sc.ensure(len(p.points), k)
	scan := func(j int, bestIdx []int, assigned []bool) []RankedPosition {
		var fixed []*candCol
		for o := 0; o < k; o++ {
			if o != j && assigned[o] {
				fixed = append(fixed, &s.cands[o][bestIdx[o]])
			}
		}
		kk := len(fixed) + 1
		nc := len(candidates[j])
		objs, strs, ord := make([]float64, nc), make([]float64, nc), make([]int, nc)
		sc.setK(kk)
		for i := range objs {
			for slot, c := range fixed {
				sc.setCol(slot, c)
			}
			sc.setCol(kk-1, &s.cands[j][i])
			objs[i], strs[i], ord[i] = sc.solve(p), sc.x[kk-1], i
		}
		sort.Slice(ord, func(a, b int) bool {
			if objs[ord[a]] != objs[ord[b]] {
				return objs[ord[a]] < objs[ord[b]]
			}
			return ord[a] < ord[b]
		})
		ranked := make([]RankedPosition, min(opts.TopM, nc))
		for t := range ranked {
			i := ord[t]
			ranked[t] = RankedPosition{Pos: candidates[j][i], Index: i, Stretch: strs[i], Objective: objs[i]}
		}
		if objs[ord[0]] < math.Inf(1) {
			bestIdx[j] = ord[0]
		}
		return ranked
	}

	restarts := conditionalRestarts
	if k == 1 {
		restarts = 1
	}
	src := rng.New(opts.Seed ^ 0xf1a7)
	bestObj := math.Inf(1)
	for attempt := 0; attempt < restarts; attempt++ {
		bestIdx, assigned := make([]int, k), make([]bool, k)
		for _, j := range src.Perm(k) {
			scan(j, bestIdx, assigned)
			assigned[j] = true
		}
		var run Result
		run.PerUser = make([][]RankedPosition, k)
		for sweep := 0; sweep < conditionalSweeps; sweep++ {
			final := sweep == conditionalSweeps-1
			before := append([]int(nil), bestIdx...)
			for j := 0; j < k; j++ {
				ranked := scan(j, bestIdx, assigned)
				if !final {
					continue
				}
				run.PerUser[j] = ranked
				sc.setK(k)
				positions := make([]geom.Point, k)
				for o := range positions {
					sc.setCol(o, &s.cands[o][bestIdx[o]])
					positions[o] = candidates[o][bestIdx[o]]
				}
				obj := sc.solve(p)
				run.Best = insertTopM(run.Best, makeEval(positions, sc.x[:k], obj), opts.TopM)
			}
			if !final && slices.Equal(before, bestIdx) {
				converged = true
			}
		}
		if len(run.Best) > 0 && run.Best[0].Objective < bestObj {
			res, bestObj = run, run.Best[0].Objective
		}
	}
	return res, sc.ws.Solves, converged
}

// sameResultBits fails unless got and want hold the same compositions and
// rankings with bit-identical objectives and stretches.
func sameResultBits(t *testing.T, label string, got, want Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Best) != len(want.Best) || len(got.PerUser) != len(want.PerUser) {
		t.Fatalf("%s: %d best / %d users, reference %d / %d", label,
			len(got.Best), len(got.PerUser), len(want.Best), len(want.PerUser))
	}
	for r, w := range want.Best {
		g := got.Best[r]
		ok := same(g.Objective, w.Objective) && len(g.Positions) == len(w.Positions)
		for j := 0; ok && j < len(w.Positions); j++ {
			ok = g.Positions[j] == w.Positions[j] && same(g.Stretches[j], w.Stretches[j])
		}
		if !ok {
			t.Fatalf("%s: Best[%d] = %+v, reference %+v", label, r, g, w)
		}
	}
	for j, wr := range want.PerUser {
		if len(got.PerUser[j]) != len(wr) {
			t.Fatalf("%s: user %d ranks %d, reference %d", label, j, len(got.PerUser[j]), len(wr))
		}
		for r, w := range wr {
			g := got.PerUser[j][r]
			if g.Pos != w.Pos || g.Index != w.Index || !same(g.Objective, w.Objective) || !same(g.Stretch, w.Stretch) {
				t.Fatalf("%s: PerUser[%d][%d] = %+v, reference %+v", label, j, r, g, w)
			}
		}
	}
}

// TestConditionalMemoExact: the conditional search's scan memo changes no
// output bit. For k = 1..4 users, serial and with 3 workers, plain and
// robust=both, Searcher.Search must reproduce refConditional exactly —
// Best and PerUser, indices, objectives and stretches. The robust case runs
// the reference through the same two passes; its pass 2 repeats pass 1's
// keys on a reweighted problem, so a memo that outlived pass 1 would fail
// it. Where the reference saw a sweep converge, the memo must also have
// saved NNLS solves, as fit.nnls.solves reports.
func TestConditionalMemoExact(t *testing.T) {
	sinks := []geom.Point{geom.Pt(7, 8), geom.Pt(22, 9), geom.Pt(14, 23), geom.Pt(25, 25)}
	cs := []float64{1.5, 2.5, 1, 2}
	reweighted, saved := 0, 0
	for k := 1; k <= 4; k++ {
		for _, robust := range []bool{false, true} {
			p, _ := poisonedProblem(t, sinks[:k], cs[:k], 60, 3, 4, uint64(10+k))
			cands := randomCandidates(p.Model().Field(), k, 40, rng.New(uint64(20+k)))
			opts := Options{MaxExhaustive: 1, Seed: uint64(k)}
			if robust {
				opts.Robust = RobustConfig{Mode: RobustBoth}
			}

			ref := NewSearcher()
			ref.prepare(p, cands, 1)
			want, refSolves, converged := refConditional(ref, p, cands, opts)
			if robust {
				mult, rep, err := ref.RobustMultipliers(p, want.Best[0], opts.Robust)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Adjusted {
					reweighted++
					p2, err := p.reweighted(mult)
					if err != nil {
						t.Fatal(err)
					}
					ref.prepare(p2, cands, 1)
					var solves2 uint64
					var converged2 bool
					want, solves2, converged2 = refConditional(ref, p2, cands, opts)
					refSolves += solves2
					converged = converged || converged2
				}
			}

			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("k=%d robust=%v workers=%d", k, robust, workers)
				m := obs.New(workers)
				opts.Workers, opts.Metrics = workers, m
				got, err := NewSearcher().Search(p, cands, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Exhaustive {
					t.Fatalf("%s: expected the conditional path", label)
				}
				sameResultBits(t, label, got, want)
				solves := m.Counter("fit.nnls.solves").Value()
				if robust {
					// RobustMultipliers solves the pass-1 best composition
					// and its leave-one-out refits outside the search.
					continue
				}
				if solves > refSolves || (converged && solves >= refSolves) {
					t.Errorf("%s: fit.nnls.solves = %d, reference %d (a sweep converged: %v)",
						label, solves, refSolves, converged)
				}
				if converged && k > 1 {
					saved++
				}
			}
		}
	}
	if reweighted == 0 {
		t.Error("no robust case reached pass 2")
	}
	if saved == 0 {
		t.Error("no multi-user case converged, so the memo's savings went unchecked")
	}
}

// TestEvaluateScratchZeroAllocs is the evaluator's allocation guard: once a
// scratch is warm, the full evaluation path — slot updates with Gram row
// recomputation, the k×k NNLS, and the residual-based objective — performs
// zero heap allocations, at the track-exact shape (k = 3) and the
// field-hotspot active-set cap (k = 8). The test alternates between two
// compositions so setCol really rewrites Gram rows instead of
// short-circuiting. So does a grouped scan's solveLast4, fast and fallen
// back lanes alike.
func TestEvaluateScratchZeroAllocs(t *testing.T) {
	src := rng.New(31)
	p, field := randomEquivProblem(t, src, true)
	n := len(p.points)
	for _, k := range []int{3, 8} {
		comps := make([][]candCol, 2)
		for c := range comps {
			comps[c] = make([]candCol, k)
			for j := range comps[c] {
				comps[c][j].wcol = make([]float64, n)
				p.fillCandCol(src.InRect(field), &comps[c][j])
			}
		}
		sc := &evalScratch{}
		sc.ensure(n, k)
		sc.setK(k)
		flip := 0
		allocs := testing.AllocsPerRun(200, func() {
			cc := comps[flip]
			flip = 1 - flip
			for j := range cc {
				sc.setCol(j, &cc[j])
			}
			if obj := sc.solve(p); math.IsNaN(obj) {
				t.Fatal("NaN objective")
			}
		})
		if allocs != 0 {
			t.Fatalf("k=%d: steady-state evaluation allocates %.1f times per composition, want 0", k, allocs)
		}

		// A grouped scan: the fixed slots factored once, then groups of
		// four candidates for the last slot, one of them a copy of a fixed
		// slot so its lane falls back to the scalar solver.
		cc := comps[0]
		sc.setK(k)
		for j := 0; j < k-1; j++ {
			sc.setCol(j, &cc[j])
		}
		if !sc.border.Factor(sc.gram[:k*k], sc.d[:k]) {
			t.Fatalf("k=%d: the fixed slots do not factor", k)
		}
		var groups [2][]candCol
		for g := range groups {
			groups[g] = make([]candCol, 4)
			for q := range groups[g] {
				groups[g][q].wcol = make([]float64, n)
				p.fillCandCol(src.InRect(field), &groups[g][q])
			}
		}
		groups[1][0] = cc[0]
		objs, strs := make([]float64, 4), make([]float64, 4)
		allocs = testing.AllocsPerRun(200, func() {
			sc.solveLast4(p, groups[flip], objs, strs)
			flip = 1 - flip
		})
		if allocs != 0 {
			t.Fatalf("k=%d: a steady-state grouped scan allocates %.1f times per group, want 0", k, allocs)
		}
	}
}

// refSetCol is the evaluator's Gram row update before the fused sweep,
// kept verbatim as the bit-identity reference: one mat.Dot per occupied
// slot.
func refSetCol(gram, d []float64, cur []*candCol, k, j int, c *candCol) {
	if cur[j] == c {
		return
	}
	cur[j] = c
	d[j] = c.proj
	gram[j*k+j] = c.norm2
	for o := 0; o < k; o++ {
		oc := cur[o]
		if o == j || oc == nil {
			continue
		}
		v := mat.Dot(c.wcol, oc.wcol)
		gram[j*k+o] = v
		gram[o*k+j] = v
	}
}

// refSolveTail is the evaluator's objective before the fused pass, kept
// verbatim: copy the weighted measurement, subtract each slot's scaled
// column in slot order, and take mat.Norm2 of the stored residual.
func refSolveTail(wb []float64, cur []*candCol, x, resid []float64) float64 {
	copy(resid, wb)
	for j := range cur {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i, v := range cur[j].wcol {
			resid[i] -= xj * v
		}
	}
	return mat.Norm2(resid)
}

// sameFloat reports bit equality, with any two NaNs equal: which operand's
// NaN payload an instruction propagates depends on the operand order the
// compiler picks, and a NaN objective ranks last whatever its payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkFusedEval drives a production evalScratch and the verbatim
// reference (refSetCol, mat.NNLSGramInto, refSolveTail) through the same
// slot updates: the first k fill every slot, each later one puts a random
// candidate of pool in a random slot. After each update with every slot
// filled it requires the same bits for every Gram entry, the stretches and
// the objective, and then, for random stretches of which about a third are
// zero, the same objective from mat.ResidualNorm2 as from the reference
// tail. It returns how many of the reference residuals it measured had a
// sum of squares outside Norm2's unscaled range.
func checkFusedEval(t *testing.T, label string, p *Problem, pool []candCol, k, updates int, src *rng.Source) (scaled int) {
	t.Helper()
	n := len(p.wb)
	sc := &evalScratch{}
	sc.ensure(n, k)
	sc.setK(k)
	cur := make([]*candCol, k)
	gram := make([]float64, k*k)
	d := make([]float64, k)
	x := make([]float64, k)
	xz := make([]float64, k) // random stretches, some zero
	resid := make([]float64, n)
	var ws mat.NNLSWorkspace
	check := func(what string, got, want float64) {
		t.Helper()
		if !sameFloat(got, want) {
			t.Fatalf("%s (n=%d k=%d): %s = %v (%#x), reference %v (%#x)",
				label, n, k, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	refObjective := func(x []float64) float64 {
		obj := refSolveTail(p.wb, cur, x, resid)
		if ssq := mat.Dot(resid, resid); !(ssq > 1e-280 && ssq < 1e280) {
			scaled++
		}
		return obj
	}
	for u := 0; u < k+updates; u++ {
		j := u
		if u >= k {
			j = src.IntN(k)
		}
		c := &pool[src.IntN(len(pool))]
		sc.setCol(j, c)
		refSetCol(gram, d, cur, k, j, c)
		if u < k-1 {
			continue
		}
		for e, v := range gram {
			check(fmt.Sprintf("gram[%d][%d]", e/k, e%k), sc.gram[e], v)
		}
		obj := sc.solve(p)
		mat.NNLSGramInto(gram, d, x, &ws)
		for s := range x {
			check(fmt.Sprintf("stretch[%d]", s), sc.x[s], x[s])
		}
		check("objective", obj, refObjective(x))

		for s := range xz {
			xz[s] = 0
			if src.IntN(3) != 0 {
				xz[s] = src.Uniform(0, 2)
			}
		}
		got := mat.ResidualNorm2(p.wb, xz, sc.cols[:k], sc.resid)
		check("objective at random stretches", got, refObjective(xz))
	}
	return scaled
}

// rawFusedProblem builds an n-sample problem and a pool of candidate
// columns straight from random values, so entries can leave the model's
// range. mode 0 draws plain values in [0, 1); 1 scales them by 1e-150,
// whose squares sum below Norm2's unscaled range, and 2 by 1e145, above
// it; 3 replaces about one entry in eight with ±Inf, NaN, 0, 1e-170 or
// 1e160; 4 makes the measurement and every column zero; 5 draws plain
// values and puts one Inf or NaN in the first column, so a zero stretch
// on that column must skip it.
func rawFusedProblem(src *rng.Source, n, mode int) (*Problem, []candCol) {
	scale := [...]float64{1, 1e-150, 1e145, 1, 0, 1}[mode]
	special := [...]float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, 1e-170, 1e160}
	draw := func(lo float64) float64 {
		if mode == 3 && src.IntN(8) == 0 {
			return special[src.IntN(len(special))]
		}
		return scale * src.Uniform(lo, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = draw(-0.2)
	}
	p := &Problem{wb: b}
	pool := make([]candCol, 6)
	for c := range pool {
		pool[c].wcol = make([]float64, n)
		for i := range pool[c].wcol {
			pool[c].wcol[i] = draw(0)
		}
		if mode == 5 && c == 0 {
			pool[c].wcol[src.IntN(n)] = special[src.IntN(3)]
		}
		p.finishCandCol(&pool[c])
	}
	return p, pool
}

// TestFusedEvaluatorBitIdentical: on model problems, weighted and
// unweighted, at k = 1..8 (the track-exact shape is 3 and the
// field-hotspot active-set cap 8) and sample counts 8..32, the fused
// evaluator gives the verbatim reference's bits for every Gram entry,
// stretch and objective, with and without zero stretches.
func TestFusedEvaluatorBitIdentical(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 160; trial++ {
		weighted := trial%2 == 0
		k := 1 + (trial/2)%8
		p, field := randomEquivProblem(t, src, weighted)
		pool := make([]candCol, k+4)
		for c := range pool {
			pool[c].wcol = make([]float64, len(p.points))
			p.fillCandCol(src.InRect(field), &pool[c])
		}
		if trial%5 == 0 {
			// Two candidates at one position: a singular Gram matrix.
			copy(pool[1].wcol, pool[0].wcol)
			p.finishCandCol(&pool[1])
		}
		checkFusedEval(t, fmt.Sprintf("trial %d weighted=%v", trial, weighted), p, pool, k, 12, src)
	}
}

// TestFusedEvaluatorScaledFallback: with tiny, huge, infinite, NaN and
// all-zero entries, and every sample count 1..13, the fused evaluator still
// gives the reference's bits, and the modes meant to leave Norm2's
// unscaled range really do.
func TestFusedEvaluatorScaledFallback(t *testing.T) {
	src := rng.New(29)
	for mode := 0; mode < 6; mode++ {
		scaled := 0
		for n := 1; n <= 13; n++ {
			for k := 1; k <= 8; k++ {
				p, pool := rawFusedProblem(src, n, mode)
				scaled += checkFusedEval(t, fmt.Sprintf("mode %d", mode), p, pool, k, 6, src)
			}
		}
		if mode >= 1 && mode <= 4 && scaled == 0 {
			t.Errorf("mode %d: no residual took Norm2's scaled path", mode)
		}
	}
}

// FuzzCompositionEval checks the fused evaluator's bits against the
// verbatim reference on fuzzer-chosen sample counts, composition sizes and
// value modes (rawFusedProblem).
func FuzzCompositionEval(f *testing.F) {
	f.Add(uint64(1), uint8(89), uint8(2), uint8(0)) // the track-exact shape
	f.Add(uint64(2), uint8(29), uint8(7), uint8(0)) // the field-hotspot cap
	f.Add(uint64(3), uint8(5), uint8(3), uint8(1))  // tiny entries
	f.Add(uint64(4), uint8(17), uint8(4), uint8(2)) // huge entries
	f.Add(uint64(5), uint8(11), uint8(5), uint8(3)) // Inf, NaN and zeros
	f.Add(uint64(6), uint8(6), uint8(1), uint8(4))  // all zero
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0))  // one sample, one user
	f.Add(uint64(8), uint8(13), uint8(7), uint8(5)) // one Inf or NaN column entry
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, modeRaw uint8) {
		n := 1 + int(nRaw)%128
		k := 1 + int(kRaw)%8
		mode := int(modeRaw) % 6
		src := rng.New(seed)
		p, pool := rawFusedProblem(src, n, mode)
		checkFusedEval(t, fmt.Sprintf("seed %d mode %d", seed, mode), p, pool, k, 8, src)
	})
}

// BenchmarkCompositionEval measures the steady-state cost of one
// composition evaluation (k users, alternating compositions so one Gram
// row is recomputed per eval, like the exhaustive scan's innermost loop).
// k = 3 is the track-exact shape and k = 8 the field-hotspot active-set
// cap. -benchmem must report 0 allocs/op.
func BenchmarkCompositionEval(b *testing.B) {
	for _, k := range []int{1, 2, 3, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			src := rng.New(77)
			field := geom.Square(30)
			model, err := fluxmodel.New(field, 0.7)
			if err != nil {
				b.Fatal(err)
			}
			n := 90
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = src.InRect(field)
			}
			measured := model.KernelVector(src.InRect(field), pts)
			p, err := NewProblemWeighted(model, pts, measured, RelativeWeights(measured))
			if err != nil {
				b.Fatal(err)
			}
			const pool = 64
			cands := make([]candCol, pool)
			for i := range cands {
				cands[i].wcol = make([]float64, n)
				p.fillCandCol(src.InRect(field), &cands[i])
			}
			sc := &evalScratch{}
			sc.ensure(n, k)
			sc.setK(k)
			for j := 0; j < k; j++ {
				sc.setCol(j, &cands[j])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.setCol(k-1, &cands[i%pool])
				benchObj += sc.solve(p)
			}
		})
	}
}

// BenchmarkCompositionEvalReference is the pre-Gram path on the same
// workload, for before/after comparison in the benchmark logs.
func BenchmarkCompositionEvalReference(b *testing.B) {
	src := rng.New(77)
	field := geom.Square(30)
	model, err := fluxmodel.New(field, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	n := 90
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.InRect(field)
	}
	measured := model.KernelVector(src.InRect(field), pts)
	p, err := NewProblemWeighted(model, pts, measured, RelativeWeights(measured))
	if err != nil {
		b.Fatal(err)
	}
	const pool = 64
	positions := make([]geom.Point, pool)
	for i := range positions {
		positions[i] = src.InRect(field)
	}
	comp := make([]geom.Point, 3)
	comp[0], comp[1] = positions[0], positions[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp[2] = positions[i%pool]
		ev, err := referenceEvaluate(p, comp)
		if err != nil {
			b.Fatal(err)
		}
		benchObj += ev.Objective
	}
}

var benchObj float64
