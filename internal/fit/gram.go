// Gram-cached composition evaluation.
//
// The candidate search ranks up to MaxExhaustive compositions per call, and
// every composition evaluation is a tiny non-negative least-squares solve
// min ‖W(Ac − F′)‖₂ whose columns are drawn from a fixed per-candidate
// pool. Rather than rebuilding the weighted n×k matrix per composition (the
// pre-PR-2 path: one Dense, one weighted copy of F′, and a general QR-based
// Lawson–Hanson solve, all allocating), the evaluator caches per candidate
//
//	wcol  = W·g(sink)        the weighted kernel column,
//	norm2 = ⟨wcol, wcol⟩     its squared norm (the Gram diagonal),
//	proj  = ⟨wcol, W·F′⟩     its projection onto the weighted measurement,
//
// so a composition only needs the k(k−1)/2 cross-terms ⟨wcolᵢ, wcolⱼ⟩ plus
// a k×k NNLS solved in a preallocated workspace (mat.NNLSGramInto). The
// fitted objective is then recovered from the explicit weighted residual —
// not from the normal-equation identity ‖r‖² = ‖b‖² − 2xᵀd + xᵀGx, which
// cancels catastrophically for good fits — so objectives keep full relative
// precision. The residual and its sum of squares are formed in one fused
// pass (mat.ResidualNorm2), and a new slot's Gram row two entries per pass
// over its column (mat.Dot2); both return the bits of the separate loops.
//
// Every Gram entry is a pure function of its candidate pair (mat.Dot's
// summation order depends only on the column length, not on which slot
// changed), so evaluations are bit-identical no matter how compositions
// are sharded across workers or in which order slots were filled: the
// determinism contract of internal/exp survives unchanged.
package fit

import (
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
)

// candCol is the per-candidate cache of the Gram evaluator. Pointer
// identity doubles as the cache key inside evalScratch: candCols live in
// stable slices owned by a Searcher for the duration of one search.
type candCol struct {
	wcol  []float64 // weighted kernel column W·g(sink) over the sample points
	norm2 float64   // ⟨wcol, wcol⟩
	proj  float64   // ⟨wcol, wb⟩ with wb the weighted measurement W·F′
}

// fillCandCol computes the candidate cache for one sink position into c,
// whose wcol must already be sized to the sample count. It performs no
// allocations.
func (p *Problem) fillCandCol(sink geom.Point, c *candCol) {
	p.model.KernelVectorInto(sink, p.points, c.wcol)
	p.finishCandCol(c)
}

// finishCandCol weights a raw kernel column in place and computes its Gram
// diagonal and measurement projection. The column must already hold
// g(sink, p_i) over the sample points — either from fillCandCol's
// single-column path or from a batched KernelMatrixInto fill in prepare.
func (p *Problem) finishCandCol(c *candCol) {
	wcol := c.wcol
	if p.weights != nil {
		for i, w := range p.weights {
			wcol[i] *= w
		}
	}
	var norm2, proj float64
	for i, v := range wcol {
		norm2 += v * v
		proj += v * p.wb[i]
	}
	c.norm2, c.proj = norm2, proj
}

// reuseRows lets solve declare its unchanged slots to the NNLS workspace.
// It is always on; the tests turn it off to check that the results keep
// their bits without it.
var reuseRows = true

// groupLanes lets scanUser solve its candidates four at a time
// (solveLast4). It is always on; the tests turn it off to check that the
// results keep their bits without it.
var groupLanes = true

// evalScratch is one worker's reusable state for evaluating compositions:
// the current composition's Gram matrix and projections, the NNLS solution
// and workspace, and a residual buffer for the scaled norm. After ensure
// has sized it, the evaluate path (setK/setCol/solve, and solveLast4 once
// border has factored at that size) performs zero heap allocations.
//
// The scratch caches the composition incrementally: setCol is a no-op when
// the slot already holds the same candidate, so enumeration orders that
// vary one user at a time (the mixed-radix exhaustive scan, the
// one-user-at-a-time conditional scan) only pay for the Gram row that
// actually changed — a rank-1 row update instead of a full k×k recompute.
type evalScratch struct {
	n, k  int
	cur   []*candCol  // current composition, slot-indexed; nil = unset
	cols  [][]float64 // cur[j].wcol, slot-indexed, for the residual kernel
	gram  []float64   // k×k row-major Gram matrix of the current composition
	d     []float64   // per-slot projections ⟨wcol, wb⟩
	x     []float64   // NNLS solution (fitted stretches), valid after solve
	resid []float64   // length-n residual buffer of mat.ResidualNorm2
	ws    mat.NNLSWorkspace

	// stable is the lowest slot setCol has changed since the last solve
	// (k when none has): the leading stable×stable Gram block and d[:stable]
	// are the previous solve's, so the NNLS workspace reuses the Cholesky
	// rows that depend only on them. The scans change their last slot most
	// often, so most solves refactor one row.
	stable int

	// border holds a conditional scan's fixed slots factored once, for
	// solveLast4; grouped reports that the factorization passed.
	border  mat.NNLSBorder
	grouped bool
}

// ensure sizes the scratch for problems with n samples and compositions of
// up to kMax users, and invalidates any cached composition (the caller may
// have rewritten the candidate pool backing the cached pointers).
func (sc *evalScratch) ensure(n, kMax int) {
	if cap(sc.cur) < kMax {
		sc.cur = make([]*candCol, kMax)
		sc.cols = make([][]float64, kMax)
		sc.gram = make([]float64, kMax*kMax)
		sc.d = make([]float64, kMax)
		sc.x = make([]float64, kMax)
	}
	if cap(sc.resid) < n {
		sc.resid = make([]float64, n)
	}
	sc.resid = sc.resid[:n]
	sc.n = n
	sc.k = 0 // forces the next setK to clear the slot cache
	sc.stable = 0
}

// setK sets the active composition size. Changing the size relayouts the
// Gram matrix, so the slot cache is cleared.
func (sc *evalScratch) setK(k int) {
	if sc.k == k {
		return
	}
	sc.k, sc.stable = k, 0
	cur := sc.cur[:k]
	for j := range cur {
		cur[j] = nil
	}
}

// setCol installs candidate c in slot j, refreshing row and column j of the
// Gram matrix against the other occupied slots. Unchanged slots (pointer
// equality) cost nothing.
func (sc *evalScratch) setCol(j int, c *candCol) {
	if sc.cur[j] == c {
		return
	}
	k := sc.k
	row := sc.gram[j*k : j*k+k]
	sc.gramRow(j, c, row)
	sc.putCol(j, c, row)
}

// gramRow computes candidate c's Gram row for slot j into row: its norm at
// row[j] and its entry against every other occupied slot, two slots per
// pass over c's column.
func (sc *evalScratch) gramRow(j int, c *candCol, row []float64) {
	row[j] = c.norm2
	pending := -1 // an occupied slot whose entry waits for a partner
	for o := 0; o < sc.k; o++ {
		if o == j || sc.cur[o] == nil {
			continue
		}
		if pending < 0 {
			pending = o
			continue
		}
		row[pending], row[o] = mat.Dot2(c.wcol, sc.cols[pending], sc.cols[o])
		pending = -1
	}
	if pending >= 0 {
		row[pending] = mat.Dot(c.wcol, sc.cols[pending])
	}
}

// putCol installs candidate c in slot j given its Gram row from gramRow,
// storing the row and its mirror column.
func (sc *evalScratch) putCol(j int, c *candCol, row []float64) {
	k := sc.k
	sc.cur[j] = c
	sc.cols[j] = c.wcol
	sc.stable = min(sc.stable, j)
	sc.d[j] = c.proj
	copy(sc.gram[j*k:j*k+k], row)
	for o, co := range sc.cur[:k] {
		if o != j && co != nil {
			sc.gram[o*k+j] = row[o]
		}
	}
}

// solve fits the stretch factors of the current composition and returns the
// minimized weighted objective ‖W(Ac − F′)‖₂. The fitted stretches are left
// in sc.x[:sc.k], slot-aligned. Steady state performs no heap allocations.
func (sc *evalScratch) solve(p *Problem) float64 {
	k := sc.k
	stable := sc.stable
	if !reuseRows {
		stable = 0
	}
	mat.NNLSGramStableInto(sc.gram[:k*k], sc.d[:k], sc.x[:k], &sc.ws, stable)
	sc.stable = k
	return mat.ResidualNorm2(p.wb, sc.x[:k], sc.cols[:k], sc.resid)
}

// solveLast4 evaluates mat.BorderLanes candidates in the last slot, with
// the other slots fixed and factored by border, writing each candidate's
// objective and fitted stretch into objs and strs. The candidates' Gram
// rows come from gramRow, as setCol would compute them, and the four
// NNLS systems are solved side by side. A fast lane takes the warm round's
// solution without installing its Gram row; a slow one is installed and
// solved by the scalar solver with the factored rows reused. Each result,
// and the NNLS work counted, has the bits of setCol and solve.
func (sc *evalScratch) solveLast4(p *Problem, cs []candCol, objs, strs []float64) {
	k := sc.k
	last := k - 1
	b := &sc.border
	var dk [mat.BorderLanes]float64
	for q := range cs {
		sc.gramRow(last, &cs[q], b.Lane(q))
		dk[q] = cs[q].proj
	}
	fast := b.Solve(dk)
	x := sc.x[:k]
	for q := range cs {
		c := &cs[q]
		if fast[q] {
			b.Take(q, x, &sc.ws)
			// The slot's Gram row is not installed: a later setCol must
			// not take the slot as holding c.
			sc.cur[last], sc.cols[last] = nil, c.wcol
		} else {
			sc.putCol(last, c, b.Lane(q))
			b.Fallback(q, sc.gram[:k*k], sc.d[:k], x, &sc.ws)
			sc.stable = k
		}
		objs[q] = mat.ResidualNorm2(p.wb, x, sc.cols[:k], sc.resid)
		strs[q] = x[last]
	}
}

// makeEval materializes an Eval from slot-aligned positions and stretches.
// The search paths call it only for compositions that actually enter a
// top-M list or improve a per-user best, so steady-state evaluations — the
// overwhelming majority — allocate nothing.
func makeEval(positions []geom.Point, stretches []float64, obj float64) Eval {
	return Eval{
		Positions: append([]geom.Point(nil), positions...),
		Stretches: append([]float64(nil), stretches...),
		Objective: obj,
	}
}
