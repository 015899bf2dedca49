package fluxmodel

import (
	"math"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// fusedTol is the agreement demanded between the fused closed-form kernel
// and the generic Kernel reference. The two compute the same real quantity
// through different roundings (Hypot + normalized RayExit vs sqrt + slab
// parameter), so equality holds to floating-point conditioning, not bitwise.
const fusedTol = 1e-9

// relClose reports |a−b| <= tol·max(|a|, |b|, 1).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= tol*scale
}

// TestFusedKernelMatchesGeneric sweeps random sinks and sample points,
// including near-sink points inside the MinDist clamp, and demands the
// vectorized (fused) kernel agree with the scalar generic reference.
func TestFusedKernelMatchesGeneric(t *testing.T) {
	m, err := New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(71)
	for trial := 0; trial < 200; trial++ {
		sink := src.InRect(m.Field())
		pts := make([]geom.Point, 60)
		for i := range pts {
			switch i % 3 {
			case 0: // anywhere in the field
				pts[i] = src.InRect(m.Field())
			case 1: // inside the MinDist clamp region around the sink
				pts[i] = m.Field().Clamp(src.InDisc(sink, m.MinDist()))
			default: // just outside the clamp
				pts[i] = m.Field().Clamp(src.InDisc(sink, 3*m.MinDist()))
			}
		}
		got := m.KernelVector(sink, pts)
		for i, p := range pts {
			want := m.Kernel(sink, p)
			if !relClose(got[i], want, fusedTol) {
				t.Fatalf("sink %v point %v: fused %v, generic %v", sink, p, got[i], want)
			}
			if got[i] < 0 {
				t.Fatalf("sink %v point %v: fused kernel negative: %v", sink, p, got[i])
			}
		}
	}
}

// TestFusedKernelEdgeCases pins the degenerate branches: point == sink
// (fallback direction), sink on the boundary, points outside the field, and
// a sink outside the field.
func TestFusedKernelEdgeCases(t *testing.T) {
	m, err := New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		sink, p geom.Point
	}{
		{"point equals sink", geom.Pt(12, 7), geom.Pt(12, 7)},
		{"sink on corner", geom.Pt(0, 0), geom.Pt(5, 5)},
		{"sink on edge, ray along edge", geom.Pt(30, 15), geom.Pt(30, 20)},
		{"sink on edge, ray inward", geom.Pt(30, 15), geom.Pt(10, 15)},
		{"point on boundary", geom.Pt(15, 15), geom.Pt(30, 30)},
		{"axis-aligned ray", geom.Pt(10, 10), geom.Pt(25, 10)},
		{"vertical ray", geom.Pt(10, 10), geom.Pt(10, 25)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := m.KernelVector(tc.sink, []geom.Point{tc.p})[0]
			want := m.Kernel(tc.sink, tc.p)
			if !relClose(got, want, fusedTol) {
				t.Errorf("fused %v, generic %v", got, want)
			}
		})
	}

	if got := m.KernelVector(geom.Pt(15, 15), []geom.Point{geom.Pt(31, 15)})[0]; got != 0 {
		t.Errorf("point outside field: fused kernel %v, want 0", got)
	}
	if got := m.KernelVector(geom.Pt(-1, 15), []geom.Point{geom.Pt(15, 15)})[0]; got != 0 {
		t.Errorf("sink outside field: fused kernel %v, want 0", got)
	}
}

// TestFusedPredictFluxMatchesScalar checks the multi-sink prediction path
// agrees with per-point FluxAt sums (which go through the generic Kernel).
func TestFusedPredictFluxMatchesScalar(t *testing.T) {
	m, err := New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(72)
	sinks := []geom.Point{src.InRect(m.Field()), src.InRect(m.Field()), src.InRect(m.Field())}
	cs := []float64{1.5, 0.7, 2.2}
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	got, err := m.PredictFlux(sinks, cs, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		var want float64
		for j, s := range sinks {
			want += m.FluxAt(s, p, cs[j])
		}
		if !relClose(got[i], want, fusedTol) {
			t.Errorf("point %v: fused sum %v, scalar sum %v", p, got[i], want)
		}
	}
}

// TestKernelVectorIntoMatchesKernelFused pins the column loop, which runs
// kernelFused's fast path inline, to per-point kernelFused bit for bit, on
// sinks at corners, on edges and inside, and on points of every branch:
// anywhere in the field, on the sink, within and just beyond MinDist, on
// the boundary, outside the field and with NaN or infinite coordinates,
// for odd and even column lengths.
func TestKernelVectorIntoMatchesKernelFused(t *testing.T) {
	m, err := New(geom.NewRect(geom.Pt(0, 0), geom.Pt(30, 20)), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Field()
	src := rng.New(74)
	nan, inf := math.NaN(), math.Inf(1)
	odd := []geom.Point{
		geom.Pt(nan, 5), geom.Pt(5, nan), geom.Pt(inf, 5), geom.Pt(-inf, 5),
		geom.Pt(5, inf), geom.Pt(5, -inf), geom.Pt(nan, nan), geom.Pt(-3, 10), geom.Pt(10, 20.5),
	}
	sinks := []geom.Point{
		f.Min, f.Max, geom.Pt(0, 20), geom.Pt(30, 0), // corners
		geom.Pt(30, 7), geom.Pt(0, 13), geom.Pt(12, 0), geom.Pt(5, 20), // edges
		geom.Pt(11.3, 8.8), src.InRect(f), src.InRect(f),
	}
	for _, sink := range sinks {
		slabs := f.SlabsAt(sink)
		for _, n := range []int{0, 1, 7, 90, 91} {
			pts := make([]geom.Point, n)
			for i := range pts {
				switch i % 8 {
				case 0:
					pts[i] = src.InRect(f)
				case 1:
					pts[i] = sink
				case 2:
					pts[i] = f.Clamp(src.InDisc(sink, m.MinDist()))
				case 3:
					pts[i] = f.Clamp(src.InDisc(sink, 3*m.MinDist()))
				case 4:
					pts[i] = geom.Pt(src.Uniform(0, 30), 20) // on the top edge
				case 5:
					pts[i] = []geom.Point{f.Min, f.Max, geom.Pt(0, 20), geom.Pt(30, 0)}[i%4]
				default:
					pts[i] = odd[i%len(odd)]
				}
			}
			got := m.KernelVectorInto(sink, pts, make([]float64, n))
			for i, p := range pts {
				if want := m.kernelFused(slabs, sink, p); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("sink %v point %v (n = %d): column %v (%#x), kernelFused %v (%#x)",
						sink, p, n, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// BenchmarkKernelVectorFused measures the fused column kernel on the
// tracking-shaped workload: one sink, 90 sample points, reused destination,
// through the Go loop and through KernelVectorInto (the AVX lanes where
// they run).
func BenchmarkKernelVectorFused(b *testing.B) {
	m, err := New(geom.Square(30), 0.8)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(73)
	pts := make([]geom.Point, 90)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	dst := make([]float64, len(pts))
	sink := geom.Pt(11.3, 22.8)
	slabs := m.Field().SlabsAt(sink)
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.kernelLoop(slabs, sink, pts, dst)
		}
	})
	b.Run("avx", func(b *testing.B) {
		if !useAVX {
			b.Skip("AVX kernel column not in use")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.KernelVectorInto(sink, pts, dst)
		}
	})
}

// BenchmarkKernelVectorGeneric is the same workload through the scalar
// generic reference, for before/after comparison of the fusion.
func BenchmarkKernelVectorGeneric(b *testing.B) {
	m, err := New(geom.Square(30), 0.8)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(73)
	pts := make([]geom.Point, 90)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	dst := make([]float64, len(pts))
	sink := geom.Pt(11.3, 22.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range pts {
			dst[j] = m.Kernel(sink, p)
		}
	}
}
