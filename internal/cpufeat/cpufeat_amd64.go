package cpufeat

// AVX reports whether the CPU runs AVX and the operating system saves the
// YMM registers, so the assembly kernels may run.
var AVX = hasAVX()

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

// Implemented in cpufeat_amd64.s.

func cpuid1ECX() uint32
func xgetbv0EAX() uint32
