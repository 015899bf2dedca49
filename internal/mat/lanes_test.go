package mat

import (
	"fmt"
	"math"
	"testing"
)

// The lane kernels' guard: every kernel that the running CPU takes (the
// AVX loops on amd64 with AVX) must return the bits of its Go loop, lane by
// lane, for every length residue mod 4, unaligned slices and any special
// entry; and ResidualNorm2 must return the bits of building the residual
// and calling Norm2, on its fast path and on its scaled fallback.

// sameBits reports whether a and b have the same bits, any NaN equal to
// any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// laneSpecials are the entries the lanes must carry through unchanged in
// IEEE terms: signed zeros, infinities, NaN, subnormals and magnitudes
// whose squares overflow or underflow.
var laneSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
}

// laneVector returns n entries drawn from s, starting off entries into a
// larger array so the loads are unaligned when off is odd. With specials,
// about one entry in six is a laneSpecials value and one in six is zero.
func laneVector(s *uint64, n, off int, specials bool) []float64 {
	v := make([]float64, off+n+1)[off : off+n]
	for i := range v {
		r := fuzzMix(s)
		switch {
		case specials && r%6 == 0:
			v[i] = laneSpecials[(r>>8)%uint64(len(laneSpecials))]
		case specials && r%6 == 1:
			v[i] = 0
		default:
			v[i] = (fuzzFloat(s)*2 - 1) * math.Pow(10, fuzzFloat(s)*6-3)
		}
	}
	return v
}

// laneCase is one input of every lane kernel: b and k columns of length n,
// and k stretches of which zeros mark skipped columns.
type laneCase struct {
	b    []float64
	x    []float64
	cols [][]float64
}

func newLaneCase(s *uint64, n, k, off int, specials bool) laneCase {
	c := laneCase{b: laneVector(s, n, off, specials), x: make([]float64, k), cols: make([][]float64, k)}
	for j := range c.cols {
		c.cols[j] = laneVector(s, n, off, specials)
		switch r := fuzzMix(s); {
		case r%4 == 0:
			c.x[j] = 0 // a skipped column
		case specials && r%4 == 1:
			c.x[j] = laneSpecials[(r>>8)%uint64(len(laneSpecials))]
		default:
			c.x[j] = fuzzFloat(s) * 3
		}
	}
	return c
}

// checkLanes compares each AVX kernel, when the CPU runs them, with its Go
// loop on the leading multiple of four of c (the general shape through
// residLanesN, which packs the non-zero stretches for it), and
// ResidualNorm2 with Norm2 of the explicitly built residual. It returns whether ResidualNorm2 took its
// scaled fallback.
func checkLanes(t *testing.T, c laneCase) (scaled bool) {
	t.Helper()
	n := len(c.b)
	n4 := n &^ 3
	b := c.b[:n4]
	lanes := func(name string, got, want [4]float64) {
		t.Helper()
		for l := range got {
			if !sameBits(got[l], want[l]) {
				t.Fatalf("%s (n = %d, k = %d): lane %d = %v (%#x), Go loop %v (%#x)",
					name, n, len(c.x), l, got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
			}
		}
	}
	cols := c.cols
	for len(cols) < 3 {
		cols = append(cols, c.b) // every shape runs, whatever k is
	}
	xs := append(append([]float64(nil), c.x...), 1.5, -0.5, 2)
	if useAVX {
		lanes("dot", dotLanesAVX(b, cols[0]), dotLanesGo(b, cols[0]))
		s, u := dot2LanesAVX(b, cols[0], cols[1])
		ws, wu := dot2LanesGo(b, cols[0], cols[1])
		lanes("dot2 first", s, ws)
		lanes("dot2 second", u, wu)
		lanes("resid1", residLanes1AVX(b, xs[0], cols[0]), residLanes1Go(b, xs[0], cols[0]))
		lanes("resid2", residLanes2AVX(b, xs[0], xs[1], cols[0], cols[1]), residLanes2Go(b, xs[0], xs[1], cols[0], cols[1]))
		lanes("resid3", residLanes3AVX(b, xs[0], xs[1], xs[2], cols[0], cols[1], cols[2]),
			residLanes3Go(b, xs[0], xs[1], xs[2], cols[0], cols[1], cols[2]))
	}
	lanes("residN", residLanesN(b, c.x, c.cols), residLanesNGo(b, c.x, c.cols))

	r := append([]float64(nil), c.b...)
	for j, xj := range c.x {
		if xj == 0 {
			continue
		}
		for i, v := range c.cols[j] {
			r[i] -= xj * v
		}
	}
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = -7 // ResidualNorm2 writes buf only on its scaled fallback
	}
	if got, want := ResidualNorm2(c.b, c.x, c.cols, buf), Norm2(r); !sameBits(got, want) {
		t.Fatalf("ResidualNorm2 (n = %d, k = %d) = %v, Norm2 of the residual %v", n, len(c.x), got, want)
	}
	scaled = !unscaledSumSq(Dot(r, r))
	for i := range buf {
		if scaled && !sameBits(buf[i], r[i]) || !scaled && buf[i] != -7 {
			t.Fatalf("ResidualNorm2 (n = %d, k = %d): buf[%d] = %v with the scaled fallback %v, residual %v",
				n, len(c.x), i, buf[i], scaled, r[i])
		}
	}
	return scaled
}

func logLanePath(t testing.TB) {
	if !useAVX {
		t.Log("AVX lane kernels not in use (not amd64, or no AVX): only Go was compared with Go")
	}
}

func TestLaneKernelsBitIdentical(t *testing.T) {
	logLanePath(t)
	s := uint64(20)
	scaled := 0
	for n := 0; n <= 130; n++ {
		for _, off := range []int{0, 1} {
			for _, specials := range []bool{false, true} {
				for _, k := range []int{0, 1, 2, 3, 5, 8, 10} {
					if checkLanes(t, newLaneCase(&s, n, k, off, specials)) {
						scaled++
					}
				}
			}
		}
	}
	if scaled == 0 {
		t.Fatal("no case took ResidualNorm2's scaled fallback")
	}
}

// TestResidualNorm2ScaledFallback pins the fallback on residuals whose
// squares overflow, underflow or vanish, with the fast path's dispatch
// shapes (one, two, three and five non-zero stretches).
func TestResidualNorm2ScaledFallback(t *testing.T) {
	logLanePath(t)
	for _, scale := range []float64{1e200, 1e-200, 0} {
		for _, k := range []int{1, 2, 3, 5} {
			for _, n := range []int{3, 4, 9, 90} {
				s := uint64(n*k + 1)
				c := newLaneCase(&s, n, k, 1, false)
				for i := range c.b {
					c.b[i] *= scale
				}
				for j := range c.x {
					c.x[j] = float64(j + 1)
					for i := range c.cols[j] {
						c.cols[j][i] *= scale
					}
				}
				if !checkLanes(t, c) {
					t.Fatalf("scale %g, k = %d, n = %d: the scaled fallback was not taken", scale, k, n)
				}
			}
		}
	}
}

func FuzzLaneKernels(f *testing.F) {
	f.Add(uint64(1), uint8(90), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(7), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(130), uint8(8), uint8(3))
	f.Add(uint64(4), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(5), uint8(45), uint8(10), uint8(1))
	f.Add(uint64(6), uint8(4), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, mode uint8) {
		s := seed
		checkLanes(t, newLaneCase(&s, int(nRaw)%131, int(kRaw)%11, int(mode&1), mode&2 != 0))
	})
}

// BenchmarkLaneKernels times each lane kernel's Go loop and AVX loop at
// the sniffed-sensor counts of track-exact (90) and a four times denser
// sampling (360).
func BenchmarkLaneKernels(b *testing.B) {
	for _, n := range []int{90, 360} {
		s := uint64(n)
		c := newLaneCase(&s, n, 8, 0, false)
		for j := range c.x {
			c.x[j] = float64(j + 1)
		}
		v, x, cols := c.b[:n&^3], c.x, c.cols
		kernels := []struct {
			name    string
			goLoop  func() [4]float64
			avxLoop func() [4]float64
		}{
			{"dot", func() [4]float64 { return dotLanesGo(v, cols[0]) },
				func() [4]float64 { return dotLanesAVX(v, cols[0]) }},
			{"dot2", func() [4]float64 { s, _ := dot2LanesGo(v, cols[0], cols[1]); return s },
				func() [4]float64 { s, _ := dot2LanesAVX(v, cols[0], cols[1]); return s }},
			{"resid1", func() [4]float64 { return residLanes1Go(v, x[0], cols[0]) },
				func() [4]float64 { return residLanes1AVX(v, x[0], cols[0]) }},
			{"resid2", func() [4]float64 { return residLanes2Go(v, x[0], x[1], cols[0], cols[1]) },
				func() [4]float64 { return residLanes2AVX(v, x[0], x[1], cols[0], cols[1]) }},
			{"resid3", func() [4]float64 { return residLanes3Go(v, x[0], x[1], x[2], cols[0], cols[1], cols[2]) },
				func() [4]float64 { return residLanes3AVX(v, x[0], x[1], x[2], cols[0], cols[1], cols[2]) }},
			{"resid8", func() [4]float64 { return residLanesNGo(v, x, cols) },
				func() [4]float64 { return residLanesNAVX(v, x, cols) }},
		}
		for _, k := range kernels {
			for _, path := range []struct {
				name string
				run  func() [4]float64
			}{{"go", k.goLoop}, {"avx", k.avxLoop}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", k.name, n, path.name), func(b *testing.B) {
					if path.name == "avx" && !useAVX {
						b.Skip("AVX lane kernels not in use")
					}
					for i := 0; i < b.N; i++ {
						laneSink = path.run()
					}
				})
			}
		}
	}
}

var laneSink [4]float64
