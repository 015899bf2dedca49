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
	y       []float64 // forward-substitution intermediate
	chol    []float64 // dense lower-triangular Cholesky factor, m×m row-major

	// Solves and Iters are cumulative work meters, maintained by every
	// solve through this workspace: Solves counts NNLSGramInto calls and
	// Iters the iterations they burned — each warm-start round and each
	// active-set (outer) iteration; the k=1 closed-form path counts as a
	// solve with zero iterations. They are plain (non-atomic) fields — a
	// workspace is single-goroutine by contract — and exist so the observability layer (internal/obs via
	// fit.Searcher) can report NNLS effort without touching the solver's
	// hot loop. Callers that want per-call deltas read before and after.
	Solves uint64
	Iters  uint64
}

// ensure grows the workspace to dimension k.
func (ws *NNLSWorkspace) ensure(k int) {
	if cap(ws.passive) < k {
		ws.passive = make([]bool, k)
		ws.idx = make([]int, 0, k)
		ws.z = make([]float64, k)
		ws.y = make([]float64, k)
		ws.chol = make([]float64, k*k)
	}
	ws.passive = ws.passive[:k]
	for j := range ws.passive {
		ws.passive[j] = false
	}
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
func NNLSGramInto(g, d, x []float64, ws *NNLSWorkspace) {
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
		return
	}
	ws.ensure(k)
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
					s -= g[j*k+o] * x[o]
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
				x[j] += alpha * (z[t] - x[j])
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
	l := ws.chol
	for a := 0; a < m; a++ {
		ja := idx[a]
		for b := 0; b <= a; b++ {
			s := g[ja*k+idx[b]]
			for t := 0; t < b; t++ {
				s -= l[a*m+t] * l[b*m+t]
			}
			if a == b {
				// Relative pivot threshold: a pivot this far below the
				// column's own squared norm means the column is numerically
				// dependent on the earlier passive columns.
				if s <= 0 || s <= 1e-13*g[ja*k+ja] {
					return false
				}
				l[a*m+a] = math.Sqrt(s)
			} else {
				l[a*m+b] = s / l[b*m+b]
			}
		}
	}
	y := ws.y
	for a := 0; a < m; a++ {
		s := d[idx[a]]
		for t := 0; t < a; t++ {
			s -= l[a*m+t] * y[t]
		}
		y[a] = s / l[a*m+a]
	}
	z := ws.z
	for a := m - 1; a >= 0; a-- {
		s := y[a]
		for t := a + 1; t < m; t++ {
			s -= l[t*m+a] * z[t]
		}
		z[a] = s / l[a*m+a]
	}
	return true
}
