//go:build !amd64

package fluxmodel

import "fluxtrack/internal/geom"

// useAVX is false off amd64: KernelVectorInto runs kernelLoop alone, and
// kernelLanesAVX is never called.
const useAVX = false

func kernelLanesAVX(pts []geom.Point, dst []float64, a *laneArgs) uint64 {
	panic("fluxmodel: no AVX kernel")
}
