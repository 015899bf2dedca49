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
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		a4, p, q := a[i:i+4:i+4], b0[i:i+4:i+4], b1[i:i+4:i+4]
		s0 += a4[0] * p[0]
		t0 += a4[0] * q[0]
		s1 += a4[1] * p[1]
		t1 += a4[1] * q[1]
		s2 += a4[2] * p[2]
		t2 += a4[2] * q[2]
		s3 += a4[3] * p[3]
		t3 += a4[3] * q[3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b0[i]
		t0 += a[i] * b1[i]
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
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
	c0 = c0[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		b4, p := b[i:i+4:i+4], c0[i:i+4:i+4]
		r0 := b4[0] - x0*p[0]
		r1 := b4[1] - x0*p[1]
		r2 := b4[2] - x0*p[2]
		r3 := b4[3] - x0*p[3]
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	for ; i < n; i++ {
		r := b[i] - x0*c0[i]
		s0 += r * r
	}
	return (s0 + s1) + (s2 + s3)
}

// residSumSq2 is ResidualNorm2's sum of squares for two non-zero stretches.
func residSumSq2(b []float64, x0, x1 float64, c0, c1 []float64) float64 {
	n := len(b)
	c0, c1 = c0[:n], c1[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		b4, p, q := b[i:i+4:i+4], c0[i:i+4:i+4], c1[i:i+4:i+4]
		r0 := b4[0] - x0*p[0]
		r1 := b4[1] - x0*p[1]
		r2 := b4[2] - x0*p[2]
		r3 := b4[3] - x0*p[3]
		r0 -= x1 * q[0]
		r1 -= x1 * q[1]
		r2 -= x1 * q[2]
		r3 -= x1 * q[3]
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	for ; i < n; i++ {
		r := b[i] - x0*c0[i]
		r -= x1 * c1[i]
		s0 += r * r
	}
	return (s0 + s1) + (s2 + s3)
}

// residSumSq3 is ResidualNorm2's sum of squares for three non-zero
// stretches.
func residSumSq3(b []float64, x0, x1, x2 float64, c0, c1, c2 []float64) float64 {
	n := len(b)
	c0, c1, c2 = c0[:n], c1[:n], c2[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		b4, p, q, w := b[i:i+4:i+4], c0[i:i+4:i+4], c1[i:i+4:i+4], c2[i:i+4:i+4]
		r0 := b4[0] - x0*p[0]
		r1 := b4[1] - x0*p[1]
		r2 := b4[2] - x0*p[2]
		r3 := b4[3] - x0*p[3]
		r0 -= x1 * q[0]
		r1 -= x1 * q[1]
		r2 -= x1 * q[2]
		r3 -= x1 * q[3]
		r0 -= x2 * w[0]
		r1 -= x2 * w[1]
		r2 -= x2 * w[2]
		r3 -= x2 * w[3]
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	for ; i < n; i++ {
		r := b[i] - x0*c0[i]
		r -= x1 * c1[i]
		r -= x2 * c2[i]
		s0 += r * r
	}
	return (s0 + s1) + (s2 + s3)
}

// residSumSqN is ResidualNorm2's sum of squares for any number of
// stretches: per block of four samples, the four residuals stay in
// registers while every column with a non-zero stretch is subtracted.
func residSumSqN(b, x []float64, cols [][]float64) float64 {
	n := len(b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		b4 := b[i : i+4 : i+4]
		r0, r1, r2, r3 := b4[0], b4[1], b4[2], b4[3]
		for j, xj := range x {
			if xj == 0 {
				continue
			}
			p := cols[j][i : i+4 : i+4]
			r0 -= xj * p[0]
			r1 -= xj * p[1]
			r2 -= xj * p[2]
			r3 -= xj * p[3]
		}
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	for ; i < n; i++ {
		r := b[i]
		for j, xj := range x {
			if xj != 0 {
				r -= xj * cols[j][i]
			}
		}
		s0 += r * r
	}
	return (s0 + s1) + (s2 + s3)
}
