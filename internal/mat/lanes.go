package mat

// Lane kernels: the four-lane block loops under Dot, Dot2 and the sums of
// squares of ResidualNorm2. Each takes vectors whose length is a multiple
// of four (the first argument's length sets it; the others may be longer)
// and returns the four lane sums: lane l accumulates, in ascending order,
// the terms of the indices i ≡ l (mod 4). The callers fold the remaining
// terms into lane 0 and combine the lanes as (s0+s1)+(s2+s3), so the
// summation order stays a fixed function of the length.
//
// The Go loops below are the portable path and the oracle of the assembly
// one. On amd64 with AVX (lanes_amd64.s) one 256-bit register holds the
// four lanes, and every lane does the same IEEE multiply, subtract and add
// as its Go loop, never a fused multiply-add, so the two paths return the
// same bits. useAVX picks the path once, at package initialisation; the
// callers test it themselves, so the assembly is one call deep.

// maxAVXCols bounds the non-zero stretches residLanesN hands to the
// assembly loop, which it packs into fixed arrays on the stack: eight is
// the active-set cap of the sharded hot tiles. More take the Go loop.
const maxAVXCols = 8

// residLanesN returns the four lane sums of r² for r = b − Σⱼ x[j]·cols[j],
// subtracting the columns in ascending order and skipping every zero x[j].
// The assembly loop takes the non-zero stretches packed in that order.
func residLanesN(b, x []float64, cols [][]float64) [4]float64 {
	if !useAVX {
		return residLanesNGo(b, x, cols)
	}
	var xs [maxAVXCols]float64
	var cs [maxAVXCols][]float64
	m := 0
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		if m == maxAVXCols {
			return residLanesNGo(b, x, cols)
		}
		xs[m], cs[m] = xj, cols[j]
		m++
	}
	return residLanesNAVX(b, xs[:m], cs[:m])
}

func dotLanesGo(a, b []float64) [4]float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= len(a); i += 4 {
		a4, b4 := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
	}
	return [4]float64{s0, s1, s2, s3}
}

func dot2LanesGo(a, b0, b1 []float64) (s, t [4]float64) {
	n := len(a)
	b0, b1 = b0[:n], b1[:n]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for i := 0; i+4 <= n; i += 4 {
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
	return [4]float64{s0, s1, s2, s3}, [4]float64{t0, t1, t2, t3}
}

func residLanes1Go(b []float64, x0 float64, c0 []float64) [4]float64 {
	n := len(b)
	c0 = c0[:n]
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= n; i += 4 {
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
	return [4]float64{s0, s1, s2, s3}
}

func residLanes2Go(b []float64, x0, x1 float64, c0, c1 []float64) [4]float64 {
	n := len(b)
	c0, c1 = c0[:n], c1[:n]
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= n; i += 4 {
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
	return [4]float64{s0, s1, s2, s3}
}

func residLanes3Go(b []float64, x0, x1, x2 float64, c0, c1, c2 []float64) [4]float64 {
	n := len(b)
	c0, c1, c2 = c0[:n], c1[:n], c2[:n]
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= n; i += 4 {
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
	return [4]float64{s0, s1, s2, s3}
}

// residLanesNGo keeps, per block of four samples, the four residuals in
// registers while every column with a non-zero stretch is subtracted.
func residLanesNGo(b, x []float64, cols [][]float64) [4]float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= len(b); i += 4 {
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
	return [4]float64{s0, s1, s2, s3}
}
