package fluxmodel

// Metamorphic and fuzz properties of the flux kernel. The fused closed-form
// column kernel (kernelFused, one sqrt + slab parameter) and the generic
// reference (Kernel, Hypot + normalized RayExit) compute the same real
// quantity through different roundings; the deterministic suite in
// fused_test.go pins them on the standard 30×30 field, and this file widens
// the net two ways:
//
//   - a native fuzz target over randomized *rectangles* as well as sinks and
//     points, with dedicated boundary-grazing and corner-ray constructions —
//     the branchy part of both paths is exactly the boundary geometry;
//   - metamorphic identities that need no reference value at all: translating
//     the whole scene leaves g unchanged, uniformly scaling the scene scales
//     g linearly, and g is invariant under the field's mirror symmetries.

import (
	"math"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// fuzzKernelTol is looser than fused_test.go's fusedTol: the fuzz domain
// includes extreme aspect-ratio rectangles and boundary-grazing rays where
// the two formulations legitimately diverge by more conditioning error than
// the calibrated-field suite allows.
const fuzzKernelTol = 1e-6

// fuzzRect derives a non-degenerate rectangle from three raw floats:
// an offset (possibly far from the origin, possibly negative) and two
// side lengths spanning 1e-2 .. 1e3.
func fuzzRect(offX, offY, shape float64) geom.Rect {
	wrap := func(v float64) float64 { // map any finite float into [0, 1)
		v = math.Abs(v)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return 0.5
		}
		return v - math.Floor(v)
	}
	ox := (wrap(offX) - 0.5) * 2000
	oy := (wrap(offY) - 0.5) * 2000
	w := math.Pow(10, wrap(shape)*5-2)       // 1e-2 .. 1e3
	h := math.Pow(10, wrap(shape*2.718)*5-2) // decorrelated from w
	return geom.NewRect(geom.Pt(ox, oy), geom.Pt(ox+w, oy+h))
}

// lerpRect maps unit coordinates (u, v) into the rectangle.
func lerpRect(r geom.Rect, u, v float64) geom.Point {
	return geom.Pt(r.Min.X+u*r.Width(), r.Min.Y+v*r.Height())
}

// checkFusedAgainstGeneric compares the fused and generic kernels for one
// (field, sink, point) triple and asserts the shared invariants: agreement
// within tol, non-negativity, finiteness. The column loop must also return
// per-point kernelFused's bits.
func checkFusedAgainstGeneric(t *testing.T, m *Model, sink, p geom.Point) {
	t.Helper()
	generic := m.Kernel(sink, p)
	fused := m.KernelVector(sink, []geom.Point{p})[0]
	if perPoint := m.kernelFused(m.Field().SlabsAt(sink), sink, p); math.Float64bits(fused) != math.Float64bits(perPoint) {
		t.Fatalf("field %v sink %v point %v: column %v, per-point kernelFused %v", m.Field(), sink, p, fused, perPoint)
	}
	if math.IsNaN(fused) || math.IsInf(fused, 0) || math.IsNaN(generic) || math.IsInf(generic, 0) {
		t.Fatalf("field %v sink %v point %v: non-finite kernel (fused %v, generic %v)",
			m.Field(), sink, p, fused, generic)
	}
	if fused < 0 || generic < 0 {
		t.Fatalf("field %v sink %v point %v: negative kernel (fused %v, generic %v)",
			m.Field(), sink, p, fused, generic)
	}
	if !relClose(fused, generic, fuzzKernelTol) {
		t.Fatalf("field %v sink %v point %v: fused %v, generic %v",
			m.Field(), sink, p, fused, generic)
	}
}

// FuzzFusedKernel drives kernelFused vs the generic RayExit path on
// randomized rectangles, sinks, and points. The unit-square parameterization
// guarantees every fuzzed sink lies in the field; the point set per input
// covers the general position, the boundary-grazing ray (point pushed onto
// an edge so the ray exits exactly through it), the corner ray (point at a
// corner, where both slabs bind simultaneously), and the near-sink clamp.
func FuzzFusedKernel(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.5, 0.5, 0.25, 0.75)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)    // sink on a corner, point on the far corner
	f.Add(0.9, 0.1, 0.99, 0.5, 1.0, 0.5, 0.0)   // sink on an edge, point on the opposite edge
	f.Add(0.3, 0.7, 0.42, 0.5, 0.5, 0.5, 0.5)   // point == sink
	f.Add(0.5, 0.5, 0.123, 1e-9, 0.5, 1.0, 0.5) // boundary-grazing horizontal ray
	f.Fuzz(func(t *testing.T, offX, offY, shape, su, sv, pu, pv float64) {
		for _, raw := range []float64{su, sv, pu, pv} {
			if math.IsNaN(raw) || math.IsInf(raw, 0) {
				t.Skip("non-finite unit coordinate")
			}
		}
		clamp01 := func(v float64) float64 { return math.Min(1, math.Max(0, v)) }
		r := fuzzRect(offX, offY, shape)
		m, err := New(r, math.Min(r.Width(), r.Height())/40)
		if err != nil {
			t.Fatal(err)
		}
		sink := lerpRect(r, clamp01(su), clamp01(sv))
		p := lerpRect(r, clamp01(pu), clamp01(pv))

		cases := []geom.Point{
			p,                     // general position
			geom.Pt(p.X, r.Max.Y), // boundary-grazing: point on the top edge
			geom.Pt(r.Max.X, p.Y), // boundary-grazing: point on the right edge
			r.Max,                 // corner ray
			r.Min,                 // corner ray through the opposite corner
			r.Clamp(geom.Pt(sink.X+m.MinDist()/3, sink.Y)), // inside the clamp
			geom.Pt(r.Max.X+r.Width(), p.Y),                // outside the field: both must give 0
		}
		for _, q := range cases {
			checkFusedAgainstGeneric(t, m, sink, q)
		}
	})
}

// TestKernelTranslationInvariance: g depends only on the scene geometry, so
// translating field, sink, and point by the same vector must preserve it to
// roundoff. Checked through the public KernelVector (fused) path.
func TestKernelTranslationInvariance(t *testing.T) {
	src := rng.New(101)
	base := geom.NewRect(geom.Pt(0, 0), geom.Pt(24, 13))
	m0, err := New(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		sink := src.InRect(base)
		p := src.InRect(base)
		d := geom.Vec{DX: src.Uniform(-500, 500), DY: src.Uniform(-500, 500)}
		shifted := geom.NewRect(base.Min.Add(d), base.Max.Add(d))
		m1, err := New(shifted, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		g0 := m0.KernelVector(sink, []geom.Point{p})[0]
		g1 := m1.KernelVector(sink.Add(d), []geom.Point{p.Add(d)})[0]
		// Translation subtracts out before any nonlinearity, but the absolute
		// coordinates round differently, so demand agreement to conditioning.
		if !relClose(g0, g1, 1e-9) {
			t.Fatalf("trial %d: g=%v at origin but %v translated by %v", trial, g0, g1, d)
		}
	}
}

// TestKernelScaleLinearity: scaling the whole scene by k scales every length
// in g = (l² − d²)/(2d) by k, so g itself scales by k (with MinDist scaled
// alongside so the clamp region maps onto itself).
func TestKernelScaleLinearity(t *testing.T) {
	src := rng.New(103)
	base := geom.NewRect(geom.Pt(0, 0), geom.Pt(24, 13))
	m0, err := New(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.125, 2, 7.5, 64} {
		scaled := geom.NewRect(
			geom.Pt(base.Min.X*k, base.Min.Y*k),
			geom.Pt(base.Max.X*k, base.Max.Y*k),
		)
		m1, err := New(scaled, 0.5*k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			sink := src.InRect(base)
			p := src.InRect(base)
			g0 := m0.KernelVector(sink, []geom.Point{p})[0]
			g1 := m1.KernelVector(geom.Pt(sink.X*k, sink.Y*k), []geom.Point{geom.Pt(p.X*k, p.Y*k)})[0]
			if !relClose(g1, k*g0, 1e-9) {
				t.Fatalf("scale %v trial %d: g=%v, want k·g0=%v", k, trial, g1, k*g0)
			}
		}
	}
}

// TestKernelMirrorSymmetry: reflecting sink and point across the field's
// vertical or horizontal midline is a scene isometry, so g is unchanged —
// and, unlike translation/scaling, reflection exercises the slab selection
// logic (the binding boundary flips side).
func TestKernelMirrorSymmetry(t *testing.T) {
	src := rng.New(107)
	r := geom.NewRect(geom.Pt(0, 0), geom.Pt(24, 13))
	m, err := New(r, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mirrorX := func(p geom.Point) geom.Point { return geom.Pt(r.Min.X+r.Max.X-p.X, p.Y) }
	mirrorY := func(p geom.Point) geom.Point { return geom.Pt(p.X, r.Min.Y+r.Max.Y-p.Y) }
	for trial := 0; trial < 200; trial++ {
		sink := src.InRect(r)
		p := src.InRect(r)
		g := m.KernelVector(sink, []geom.Point{p})[0]
		gx := m.KernelVector(mirrorX(sink), []geom.Point{mirrorX(p)})[0]
		gy := m.KernelVector(mirrorY(sink), []geom.Point{mirrorY(p)})[0]
		if !relClose(g, gx, 1e-9) || !relClose(g, gy, 1e-9) {
			t.Fatalf("trial %d: g=%v, mirrored-x %v, mirrored-y %v", trial, g, gx, gy)
		}
	}
}

// TestKernelMonotoneAlongRay: along a fixed ray from the sink, g strictly
// decreases with distance (outside the clamp region): the same boundary exit
// l serves every point on the ray while d grows, and ∂g/∂d < 0. This is a
// reference-free sanity property of both kernel paths.
func TestKernelMonotoneAlongRay(t *testing.T) {
	m, err := New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(109)
	for trial := 0; trial < 100; trial++ {
		sink := src.InRect(m.Field())
		dir := geom.Vec{DX: src.Uniform(-1, 1), DY: src.Uniform(-1, 1)}
		u, ok := dir.Unit()
		if !ok {
			continue
		}
		exit, ok := m.Field().RayExit(sink, u)
		if !ok || exit <= 2*m.MinDist() {
			continue
		}
		prev := math.Inf(1)
		for step := 1; step <= 8; step++ {
			d := m.MinDist() + (exit-m.MinDist())*float64(step)/9
			p := sink.Add(u.Scale(d))
			g := m.KernelVector(sink, []geom.Point{p})[0]
			if g > prev*(1+1e-12) {
				t.Fatalf("trial %d: kernel increased along ray: %v then %v at d=%v", trial, prev, g, d)
			}
			prev = g
		}
	}
}
