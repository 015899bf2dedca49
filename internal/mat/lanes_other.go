//go:build !amd64

package mat

// useAVX is false off amd64: the lane kernels run their Go loops, and the
// assembly entries below are never called.
const useAVX = false

func dotLanesAVX(a, b []float64) [4]float64 { panic("mat: no AVX lane kernels") }

func dot2LanesAVX(a, b0, b1 []float64) (s, t [4]float64) { panic("mat: no AVX lane kernels") }

func residLanes1AVX(b []float64, x0 float64, c0 []float64) [4]float64 {
	panic("mat: no AVX lane kernels")
}

func residLanes2AVX(b []float64, x0, x1 float64, c0, c1 []float64) [4]float64 {
	panic("mat: no AVX lane kernels")
}

func residLanes3AVX(b []float64, x0, x1, x2 float64, c0, c1, c2 []float64) [4]float64 {
	panic("mat: no AVX lane kernels")
}

func residLanesNAVX(b, x []float64, cols [][]float64) [4]float64 {
	panic("mat: no AVX lane kernels")
}
