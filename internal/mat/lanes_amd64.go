package mat

import "fluxtrack/internal/cpufeat"

// useAVX reports whether the lane kernels take the assembly loops: the
// CPU runs AVX and the operating system saves the YMM registers.
var useAVX = cpufeat.AVX

// Implemented in lanes_amd64.s.

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
