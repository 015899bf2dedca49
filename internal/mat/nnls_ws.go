package mat

import (
	"fmt"
	"math"
)

// NNLSWorkspace holds every scratch vector the workspace-taking NNLS
// solvers need. A zero value is ready to use; the first solve sizes it and
// subsequent solves of the same (or smaller) dimension perform no heap
// allocations. A workspace must not be shared between goroutines.
type NNLSWorkspace struct {
	passive []bool
	idx     []int
	z       []float64 // passive-set solution of the equality-constrained solve
	y       []float64 // forward-substitution intermediate, one entry per row of chol
	chol    []float64 // dense lower-triangular Cholesky factor, row a at chol[a*k:]

	// Row reuse. cholSolve factors row by row, and row a of chol and y[a]
	// depend only on the Gram entries and projections of rowIdx[:a+1], so
	// the first rows rows stay valid for a later solve at the same k whose
	// passive list starts with rowIdx[:rows], until g or d change there.
	// ensure forgets them; NNLSGramStableInto keeps the ones its caller
	// declares unchanged.
	rowIdx []int
	rows   int
	rowsK  int // the Gram dimension rows was factored at

	// Solves and Iters are cumulative work meters, maintained by every
	// solve through this workspace: Solves counts NNLSGramInto and
	// NNLSGramStableInto calls and Iters the iterations they burned — each
	// warm-start round and each
	// active-set (outer) iteration; the k=1 closed-form path counts as a
	// solve with zero iterations. They are plain (non-atomic) fields — a
	// workspace is single-goroutine by contract — and exist so the observability layer (internal/obs via
	// fit.Searcher) can report NNLS effort without touching the solver's
	// hot loop. Callers that want per-call deltas read before and after.
	Solves uint64
	Iters  uint64
}

// ensure grows the workspace to dimension k and forgets every factored
// row.
func (ws *NNLSWorkspace) ensure(k int) {
	if cap(ws.passive) < k {
		ws.passive = make([]bool, k)
		ws.idx = make([]int, 0, k)
		ws.z = make([]float64, k)
		ws.y = make([]float64, k)
		ws.chol = make([]float64, k*k)
		ws.rowIdx = make([]int, k)
	}
	ws.passive = ws.passive[:k]
	for j := range ws.passive {
		ws.passive[j] = false
	}
	ws.rows, ws.rowsK = 0, k
}

// stableRows returns how many factored rows stay valid for a solve at
// dimension k whose g and d are unchanged in their leading stable×stable
// block and first stable entries: the leading rows whose passive variables
// all lie below stable (rowIdx is ascending).
func (ws *NNLSWorkspace) stableRows(k, stable int) int {
	if k != ws.rowsK {
		return 0
	}
	r := 0
	for r < ws.rows && ws.rowIdx[r] < stable {
		r++
	}
	return r
}

// nnlsGramTol mirrors the gradient tolerance of the allocating NNLS: the
// gradient here is d − Gx = Aᵀ(b − Ax), exactly the quantity the
// Lawson-Hanson loop in NNLS thresholds.
const nnlsGramTol = 1e-10

// NNLSGramInto solves the non-negative least-squares problem
//
//	min ||A x − b||_2  subject to  x >= 0
//
// given only its normal-equation quantities: the Gram matrix g = AᵀA (k×k,
// row-major) and the projection d = Aᵀb. The solution is written into x
// (length k). It is the allocation-free inner kernel of the candidate
// search in internal/fit: once per-candidate columns, norms, and
// projections are cached, every composition evaluation reduces to this
// tiny k×k solve.
//
// The algorithm is the same active-set iteration as NNLS with the passive
// subproblems solved by Cholesky on the Gram submatrix instead of QR on
// the column submatrix: closed form for one passive variable, a direct
// dense factorization above. Instead of starting from x = 0 and adding one
// variable per iteration, it starts from every variable passive: it solves
// on the passive set, drops every variable whose solution is not positive,
// and repeats until the solution is positive on the whole set (at most k
// rounds), then runs the active-set loop from there. In the search's
// compositions nearly every variable is positive at the optimum, so the
// warm start usually ends the solve after one factorization. If a warm
// round's set is rank-deficient the solve falls back to x = 0 and the
// empty set, the from-zero start. Either start ends at one Cholesky solve
// over the final passive set, so on a positive-definite Gram matrix both
// return the same bits (DESIGN.md §6.1). Rank-deficient passive sets in the
// active-set loop are handled the same way as in NNLS — the newest variable
// is dropped and the iteration continues — so degenerate compositions
// (e.g. two users at the same position) stay well-defined.
//
// NNLSGramInto takes nothing from the workspace's earlier solves; a caller
// that solves a sequence of related systems can say what stayed the same
// with NNLSGramStableInto.
func NNLSGramInto(g, d, x []float64, ws *NNLSWorkspace) {
	NNLSGramStableInto(g, d, x, ws, 0)
}

// NNLSGramStableInto is NNLSGramInto for a caller that solves a sequence
// of related systems on one workspace, such as a scan that varies only the
// last variable. stable declares that the leading stable×stable block of g
// and the first stable entries of d hold the values of the workspace's
// previous solve; the Cholesky rows that depend only on them are then
// reused instead of refactored, across calls as well as within one. The
// result has the bits of NNLSGramInto whenever the declaration holds.
// stable = 0 reuses nothing across calls, and a declaration that follows a
// solve at another k is ignored.
func NNLSGramStableInto(g, d, x []float64, ws *NNLSWorkspace, stable int) {
	k := len(d)
	if len(g) != k*k || len(x) != k {
		panic(fmt.Sprintf("mat: NNLSGramInto dimension mismatch: gram %d, d %d, x %d", len(g), len(d), len(x)))
	}
	ws.Solves++
	if k == 1 {
		// Closed form: one variable enters iff its gradient at zero is
		// positive and its column is non-degenerate.
		if d[0] > nnlsGramTol && g[0] > 0 {
			x[0] = d[0] / g[0]
		} else {
			x[0] = 0
		}
		ws.rows = 0 // the next solve follows one at another k
		return
	}
	keep := ws.stableRows(k, stable)
	ws.ensure(k)
	ws.rows = keep
	ws.warmStart(g, d, x, k)

	maxOuter := 3 * k
	for outer := 0; outer < maxOuter; outer++ {
		ws.Iters++
		// Gradient w = d − G x over the active (clamped) variables; pick the
		// most positive one.
		best, bestVal := -1, float64(nnlsGramTol)
		for j := 0; j < k; j++ {
			if ws.passive[j] {
				continue
			}
			s := d[j]
			for o := 0; o < k; o++ {
				if x[o] != 0 {
					s -= float64(g[j*k+o] * x[o])
				}
			}
			if s > bestVal {
				best, bestVal = j, s
			}
		}
		if best < 0 {
			break // KKT conditions satisfied
		}
		ws.passive[best] = true

		// Inner loop: solve the equality-constrained problem on the passive
		// set and move x toward it, clamping variables that would go negative.
		for inner := 0; inner < maxOuter; inner++ {
			idx := ws.passiveIdx()
			if !ws.cholSolve(g, d, k, idx) {
				// Degenerate passive set: drop the newest variable and stop.
				ws.passive[best] = false
				break
			}
			z := ws.z[:len(idx)]
			allPos := true
			for _, v := range z {
				if v <= nnlsGramTol {
					allPos = false
					break
				}
			}
			if allPos {
				for t, j := range idx {
					x[j] = z[t]
				}
				break
			}
			// Line search toward z: alpha = min over offending variables.
			alpha := math.Inf(1)
			for t, j := range idx {
				if z[t] <= nnlsGramTol {
					denom := x[j] - z[t]
					if denom > 0 {
						alpha = math.Min(alpha, x[j]/denom)
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for t, j := range idx {
				x[j] += float64(alpha * (z[t] - x[j]))
				if x[j] <= nnlsGramTol {
					x[j] = 0
					ws.passive[j] = false
				}
			}
		}
	}
}

// warmStart sets (x, passive) to the active-set loop's starting point. It
// makes every variable passive, solves on the passive set and drops every
// variable whose solution is at most nnlsGramTol (or NaN, so a NaN in g or
// d leaves the variable to the active-set loop, which never admits it),
// until the solution is positive on the whole set; x is then that solution
// on the set and zero off it. Each round drops at least one variable, so there are at most k.
// A rank-deficient set resets to x = 0 with nothing passive. Each round
// counts one iteration.
func (ws *NNLSWorkspace) warmStart(g, d, x []float64, k int) {
	for j := range x {
		x[j] = 0
		ws.passive[j] = true
	}
	for {
		idx := ws.passiveIdx()
		if len(idx) == 0 {
			return
		}
		ws.Iters++
		if !ws.cholSolve(g, d, k, idx) {
			for _, j := range idx {
				ws.passive[j] = false
			}
			return
		}
		z := ws.z[:len(idx)]
		dropped := false
		for t, j := range idx {
			if !(z[t] > nnlsGramTol) {
				ws.passive[j] = false
				dropped = true
			}
		}
		if !dropped {
			for t, j := range idx {
				x[j] = z[t]
			}
			return
		}
	}
}

// passiveIdx lists the passive variables in ascending index order into the
// workspace's index buffer.
func (ws *NNLSWorkspace) passiveIdx() []int {
	idx := ws.idx[:0]
	for j, p := range ws.passive {
		if p {
			idx = append(idx, j)
		}
	}
	return idx
}

// cholSolve solves G[idx,idx] z = d[idx] by a dense Cholesky factorization
// into the workspace, writing the solution into ws.z[:len(idx)]. It reports
// false when the submatrix is not (numerically) positive definite.
//
// The factorization runs row by row (Cholesky–Banachiewicz) and computes
// each row's forward-substitution entry y[a] right after the row, so row a
// and y[a] are functions of idx[:a+1] alone: the leading rows already
// factored for the same variables (ws.rows, ws.rowIdx) are reused, with
// the bits a full factorization would give them.
func (ws *NNLSWorkspace) cholSolve(g, d []float64, k int, idx []int) bool {
	m := len(idx)
	if m == 0 {
		return false
	}
	if m == 1 {
		j := idx[0]
		gjj := g[j*k+j]
		if gjj <= 0 {
			return false
		}
		ws.z[0] = d[j] / gjj
		return true
	}
	a := 0
	for a < ws.rows && a < m && ws.rowIdx[a] == idx[a] {
		a++
	}
	if a < m {
		copy(ws.rowIdx[a:m], idx[a:])
		ws.rows = m
	}
	if f := cholRows(g, d, k, idx, ws.chol, ws.y, a); f < m {
		ws.rows = f
		return false
	}
	l, y := ws.chol, ws.y
	z := ws.z
	for a := m - 1; a >= 0; a-- {
		s := y[a]
		for t := a + 1; t < m; t++ {
			s -= float64(l[t*k+a] * z[t])
		}
		z[a] = s / l[a*k+a]
	}
	return true
}

// cholRows factors rows from..len(idx)−1 of G[idx,idx] into l (row a at
// l[a*k:]) and computes each row's forward-substitution entry y[a] right
// after it, given rows and entries 0..from−1. It returns the first row
// whose pivot fails the relative threshold, or len(idx) when none does.
func cholRows(g, d []float64, k int, idx []int, l, y []float64, from int) int {
	m := len(idx)
	for a := from; a < m; a++ {
		ja := idx[a]
		la := l[a*k : a*k+a+1]
		for b := 0; b <= a; b++ {
			s := g[ja*k+idx[b]]
			lb := l[b*k : b*k+b]
			for t, v := range lb {
				s -= float64(la[t] * v)
			}
			if a == b {
				if !pivotOK(s, g[ja*k+ja]) {
					return a
				}
				la[a] = math.Sqrt(s)
			} else {
				la[b] = s / l[b*k+b]
			}
		}
		s := d[ja]
		for t, v := range la[:a] {
			s -= float64(v * y[t])
		}
		y[a] = s / la[a]
	}
	return m
}
