package mat

import "math"

// BorderLanes is the number of candidates NNLSBorder.Solve takes at once.
const BorderLanes = 4

// NNLSBorder solves a scan's bordered NNLS systems four at a time. In a
// scan, every system shares the leading (k−1)×(k−1) block of its k×k Gram
// matrix g and the first k−1 entries of d (the fixed users); only the last
// row and column of g and the last entry of d (the scanned candidate)
// vary. Factor factors the shared block once. Solve then runs, for four
// candidates side by side, the rest of the first warm-start round of
// NNLSGramInto with every variable passive: the candidate's Cholesky row,
// its pivot test, its forward-substitution entry and the full back
// substitution. The four lanes are independent chains of dependent
// divisions, which the core overlaps; each lane does cholSolve's
// operations in cholSolve's order, every product rounded on its own, so a
// lane's z has the bits of that round.
//
// A lane is fast when that round ends the solve: its pivot passes and
// every z exceeds nnlsGramTol (a NaN fails). NNLSGramInto then takes z as
// x after one more iteration, the empty KKT check, and Take returns the
// same. Any other lane goes to Fallback, which runs NNLSGramStableInto
// with the factored rows installed. Both give the bits, the Solves count
// and the Iters count of NNLSGramInto on a fresh workspace.
//
// A zero value is ready to use; after the first Factor at a given k no
// call allocates. An NNLSBorder must not be shared between goroutines.
type NNLSBorder struct {
	k   int
	idx []int     // 0..k−1, the passive list of the warm round
	l   []float64 // the leading block's Cholesky rows, row a at l[a*k:]
	y   []float64 // their forward-substitution entries

	// The current group, lane q at [q*k:(q+1)*k]: the border Gram row
	// (Lane), the candidate's Cholesky row and the warm round's z.
	g, row, z []float64
	yk        [BorderLanes]float64 // the candidates' forward-substitution entries
	pivot     [BorderLanes]bool    // the candidate's pivot passed
}

// Factor factors the leading (k−1)×(k−1) block of the k×k row-major Gram
// matrix g, with d's first k−1 entries, where k = len(d) ≥ 2, by the
// operations cholSolve applies to those rows. It reports whether every
// pivot passed; when one fails, every candidate's warm round fails at that
// row, so no lane can be fast and the caller solves each candidate with
// NNLSGramStableInto instead of Solve.
func (b *NNLSBorder) Factor(g, d []float64) bool {
	k := len(d)
	if k < 2 || len(g) != k*k {
		panic("mat: NNLSBorder.Factor needs a k×k Gram matrix with k ≥ 2")
	}
	if cap(b.idx) < k {
		b.idx = make([]int, k)
		b.l = make([]float64, k*k)
		b.y = make([]float64, k)
		b.g = make([]float64, BorderLanes*k)
		b.row = make([]float64, BorderLanes*k)
		b.z = make([]float64, BorderLanes*k)
	}
	b.k = k
	b.idx = b.idx[:k]
	for j := range b.idx {
		b.idx[j] = j
	}
	b.l, b.y = b.l[:(k-1)*k], b.y[:k-1]
	b.g, b.row, b.z = b.g[:BorderLanes*k], b.row[:BorderLanes*k], b.z[:BorderLanes*k]
	return cholRows(g, d, k, b.idx[:k-1], b.l, b.y, 0) == k-1
}

// Lane returns lane q's border Gram row for the caller to fill before
// Solve: entry j < k−1 is the Gram entry of the candidate and fixed
// variable j, entry k−1 the candidate's own (the diagonal).
func (b *NNLSBorder) Lane(q int) []float64 {
	return b.g[q*b.k : (q+1)*b.k : (q+1)*b.k]
}

// Solve runs the warm round of the four lanes whose border rows Lane holds
// and whose last entries of d are dk, after a Factor that passed, and
// reports which lanes it ends.
func (b *NNLSBorder) Solve(dk [BorderLanes]float64) (fast [BorderLanes]bool) {
	k := b.k
	a := k - 1
	l, y := b.l, b.y
	g0, g1, g2, g3 := b.g[0:k], b.g[k:2*k], b.g[2*k:3*k], b.g[3*k:4*k]
	r0, r1, r2, r3 := b.row[0:k], b.row[k:2*k], b.row[2*k:3*k], b.row[3*k:4*k]
	z0, z1, z2, z3 := b.z[0:k], b.z[k:2*k], b.z[2*k:3*k], b.z[3*k:4*k]

	// The candidates' Cholesky rows: entry c against the fixed row c, then
	// the pivot.
	for c := 0; c < a; c++ {
		s0, s1, s2, s3 := g0[c], g1[c], g2[c], g3[c]
		for t, v := range l[c*k : c*k+c] {
			s0 -= float64(r0[t] * v)
			s1 -= float64(r1[t] * v)
			s2 -= float64(r2[t] * v)
			s3 -= float64(r3[t] * v)
		}
		p := l[c*k+c]
		r0[c], r1[c], r2[c], r3[c] = s0/p, s1/p, s2/p, s3/p
	}
	s0, s1, s2, s3 := g0[a], g1[a], g2[a], g3[a]
	for t := 0; t < a; t++ {
		s0 -= float64(r0[t] * r0[t])
		s1 -= float64(r1[t] * r1[t])
		s2 -= float64(r2[t] * r2[t])
		s3 -= float64(r3[t] * r3[t])
	}
	b.pivot = [BorderLanes]bool{pivotOK(s0, g0[a]), pivotOK(s1, g1[a]), pivotOK(s2, g2[a]), pivotOK(s3, g3[a])}
	r0[a], r1[a], r2[a], r3[a] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)

	// Forward substitution of the candidates' rows.
	s0, s1, s2, s3 = dk[0], dk[1], dk[2], dk[3]
	for t, v := range y {
		s0 -= float64(r0[t] * v)
		s1 -= float64(r1[t] * v)
		s2 -= float64(r2[t] * v)
		s3 -= float64(r3[t] * v)
	}
	b.yk = [BorderLanes]float64{s0 / r0[a], s1 / r1[a], s2 / r2[a], s3 / r3[a]}

	// Back substitution: row c meets the fixed rows below it, then the
	// candidate's row, last.
	z0[a], z1[a], z2[a], z3[a] = b.yk[0]/r0[a], b.yk[1]/r1[a], b.yk[2]/r2[a], b.yk[3]/r3[a]
	for c := a - 1; c >= 0; c-- {
		s0, s1, s2, s3 = y[c], y[c], y[c], y[c]
		for t := c + 1; t < a; t++ {
			v := l[t*k+c]
			s0 -= float64(v * z0[t])
			s1 -= float64(v * z1[t])
			s2 -= float64(v * z2[t])
			s3 -= float64(v * z3[t])
		}
		s0 -= float64(r0[c] * z0[a])
		s1 -= float64(r1[c] * z1[a])
		s2 -= float64(r2[c] * z2[a])
		s3 -= float64(r3[c] * z3[a])
		p := l[c*k+c]
		z0[c], z1[c], z2[c], z3[c] = s0/p, s1/p, s2/p, s3/p
	}

	for q := range fast {
		fast[q] = b.pivot[q] && allAbove(b.z[q*k:(q+1)*k], nnlsGramTol)
	}
	return fast
}

// pivotOK is the Cholesky pivot test: s is neither non-positive nor below
// the relative threshold of the column's squared norm gaa. A pivot below
// it means the column is numerically dependent on the earlier passive
// columns; a NaN pivot passes.
func pivotOK(s, gaa float64) bool {
	return !(s <= 0 || s <= 1e-13*gaa)
}

// allAbove reports whether every entry of z exceeds tol; a NaN does not.
func allAbove(z []float64, tol float64) bool {
	for _, v := range z {
		if !(v > tol) {
			return false
		}
	}
	return true
}

// Take writes fast lane q's solution into x (length k) and counts on ws
// the work NNLSGramInto does for it: one solve of two iterations, the warm
// round and the KKT check that finds no variable to add.
func (b *NNLSBorder) Take(q int, x []float64, ws *NNLSWorkspace) {
	copy(x[:b.k], b.z[q*b.k:(q+1)*b.k])
	ws.Solves++
	ws.Iters += 2
}

// Fallback solves slow lane q's system, which g (k×k) and d must hold in
// full, by NNLSGramStableInto on ws, after installing the leading block's
// rows and, when its pivot passed, the lane's own row as ws's factored
// rows: the warm round then repeats only the back substitution, and later
// rounds reuse the rows ahead of their first dropped variable.
func (b *NNLSBorder) Fallback(q int, g, d, x []float64, ws *NNLSWorkspace) {
	k := b.k
	ws.ensure(k)
	copy(ws.chol, b.l)
	copy(ws.y, b.y)
	copy(ws.rowIdx, b.idx)
	ws.rows = k - 1
	if b.pivot[q] {
		copy(ws.chol[(k-1)*k:k*k], b.row[q*k:(q+1)*k])
		ws.y[k-1] = b.yk[q]
		ws.rows = k
	}
	NNLSGramStableInto(g, d, x, ws, k)
}
