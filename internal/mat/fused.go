package mat

import "math"

// Fused kernels of the composition evaluator (internal/fit): each touches
// its vectors once where the separate calls would pass over them several
// times, and each returns exactly the bits of those calls. The per-element
// operations and Dot's lane order are kept; only the loops are merged.

// Dot2 returns Dot(a, b0) and Dot(a, b1) from one pass over a. Each sum
// keeps its own four lanes and Dot's combination order, so both results
// are bit-identical to the separate calls. It panics on length mismatch.
func Dot2(a, b0, b1 []float64) (float64, float64) {
	n := len(a)
	if len(b0) != n || len(b1) != n {
		panic("mat: Dot2 length mismatch")
	}
	n4 := n &^ 3
	var s, t [4]float64
	if useAVX {
		s, t = dot2LanesAVX(a[:n4], b0[:n4], b1[:n4])
	} else {
		s, t = dot2LanesGo(a[:n4], b0[:n4], b1[:n4])
	}
	for i := n4; i < n; i++ {
		s[0] += a[i] * b0[i]
		t[0] += a[i] * b1[i]
	}
	return (s[0] + s[1]) + (s[2] + s[3]), (t[0] + t[1]) + (t[2] + t[3])
}

// ResidualNorm2 returns Norm2(r) for the residual r = b − Σⱼ x[j]·cols[j],
// bit for bit, without storing r on its fast path. Each r_i is formed as
// b_i, then minus x[j]·cols[j][i] for every j in ascending order whose
// x[j] is not zero, and r_i² is summed in Dot's four lanes, which is the
// sequence of building r and calling Norm2. When that sum lies outside
// Norm2's unscaled range, r is built into buf and measured by Norm2. Every
// column and buf must have len(b) entries, and x len(cols); it panics
// otherwise. It allocates nothing.
func ResidualNorm2(b, x []float64, cols [][]float64, buf []float64) float64 {
	n := len(b)
	if len(x) != len(cols) || len(buf) != n {
		panic("mat: ResidualNorm2 length mismatch")
	}
	var nz [3]int
	m := 0
	for j, xj := range x {
		if len(cols[j]) != n {
			panic("mat: ResidualNorm2 length mismatch")
		}
		if xj != 0 {
			if m < len(nz) {
				nz[m] = j
			}
			m++
		}
	}
	var ssq float64
	switch m {
	case 0:
		ssq = Dot(b, b)
	case 1:
		ssq = residSumSq1(b, x[nz[0]], cols[nz[0]])
	case 2:
		ssq = residSumSq2(b, x[nz[0]], x[nz[1]], cols[nz[0]], cols[nz[1]])
	case 3:
		ssq = residSumSq3(b, x[nz[0]], x[nz[1]], x[nz[2]], cols[nz[0]], cols[nz[1]], cols[nz[2]])
	default:
		ssq = residSumSqN(b, x, cols)
	}
	if unscaledSumSq(ssq) {
		return math.Sqrt(ssq)
	}
	copy(buf, b)
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		for i, v := range cols[j] {
			buf[i] -= xj * v
		}
	}
	return Norm2(buf)
}

// residSumSq1 is ResidualNorm2's sum of squares for one non-zero stretch.
func residSumSq1(b []float64, x0 float64, c0 []float64) float64 {
	n := len(b)
	n4 := n &^ 3
	c0 = c0[:n]
	var s [4]float64
	if useAVX {
		s = residLanes1AVX(b[:n4], x0, c0)
	} else {
		s = residLanes1Go(b[:n4], x0, c0)
	}
	for i := n4; i < n; i++ {
		r := b[i] - x0*c0[i]
		s[0] += r * r
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// residSumSq2 is ResidualNorm2's sum of squares for two non-zero stretches.
func residSumSq2(b []float64, x0, x1 float64, c0, c1 []float64) float64 {
	n := len(b)
	n4 := n &^ 3
	c0, c1 = c0[:n], c1[:n]
	var s [4]float64
	if useAVX {
		s = residLanes2AVX(b[:n4], x0, x1, c0, c1)
	} else {
		s = residLanes2Go(b[:n4], x0, x1, c0, c1)
	}
	for i := n4; i < n; i++ {
		r := b[i] - x0*c0[i]
		r -= x1 * c1[i]
		s[0] += r * r
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// residSumSq3 is ResidualNorm2's sum of squares for three non-zero
// stretches.
func residSumSq3(b []float64, x0, x1, x2 float64, c0, c1, c2 []float64) float64 {
	n := len(b)
	n4 := n &^ 3
	c0, c1, c2 = c0[:n], c1[:n], c2[:n]
	var s [4]float64
	if useAVX {
		s = residLanes3AVX(b[:n4], x0, x1, x2, c0, c1, c2)
	} else {
		s = residLanes3Go(b[:n4], x0, x1, x2, c0, c1, c2)
	}
	for i := n4; i < n; i++ {
		r := b[i] - x0*c0[i]
		r -= x1 * c1[i]
		r -= x2 * c2[i]
		s[0] += r * r
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// residSumSqN is ResidualNorm2's sum of squares for any number of
// stretches.
func residSumSqN(b, x []float64, cols [][]float64) float64 {
	n := len(b)
	n4 := n &^ 3
	s := residLanesN(b[:n4], x, cols)
	for i := n4; i < n; i++ {
		r := b[i]
		for j, xj := range x {
			if xj != 0 {
				r -= xj * cols[j][i]
			}
		}
		s[0] += r * r
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}
