package fluxmodel

import (
	"fluxtrack/internal/cpufeat"
	"fluxtrack/internal/geom"
)

// useAVX reports whether KernelVectorInto takes kernelLanes: the CPU runs
// AVX and the operating system saves the YMM registers.
var useAVX = cpufeat.AVX

// kernelLanesAVX evaluates kernelLoop's fast path on len(pts) points, a
// multiple of four and at most laneBlock, into dst, and returns a mask
// whose bit i is set when point i left the fast path; dst[i] then holds no
// kernel value. Implemented in kernel_amd64.s.
//
//go:noescape
func kernelLanesAVX(pts []geom.Point, dst []float64, a *laneArgs) (slow uint64)
