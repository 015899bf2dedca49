//go:build !amd64

package cpufeat

// AVX is false off amd64: there is no assembly to run.
const AVX = false
