// Package cpufeat probes, once at package initialisation, the CPU features
// the numeric kernels' assembly paths need. internal/mat's lane kernels and
// internal/fluxmodel's kernel column both read AVX from here, so there is
// one CPUID/XGETBV probe. Off amd64, AVX is the constant false and the Go
// loops run.
package cpufeat
