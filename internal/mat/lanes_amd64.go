package mat

// useAVX reports whether the CPU runs AVX and the operating system saves
// the YMM registers, so the lane kernels take the assembly loops.
var useAVX = hasAVX()

// hasAVX reads CPUID leaf 1 (the OSXSAVE and AVX bits) and, when XGETBV is
// usable, XCR0 (XMM and YMM state enabled).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	return xgetbv0EAX()&xmmYmm == xmmYmm
}

// Implemented in lanes_amd64.s.

func cpuid1ECX() uint32
func xgetbv0EAX() uint32

//go:noescape
func dotLanesAVX(a, b []float64) (s [4]float64)

//go:noescape
func dot2LanesAVX(a, b0, b1 []float64) (s, t [4]float64)

//go:noescape
func residLanes1AVX(b []float64, x0 float64, c0 []float64) (s [4]float64)

//go:noescape
func residLanes2AVX(b []float64, x0, x1 float64, c0, c1 []float64) (s [4]float64)

//go:noescape
func residLanes3AVX(b []float64, x0, x1, x2 float64, c0, c1, c2 []float64) (s [4]float64)

//go:noescape
func residLanesNAVX(b, x []float64, cols [][]float64) (s [4]float64)
