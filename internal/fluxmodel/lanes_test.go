package fluxmodel

import (
	"math"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// kernelPoint draws a point of one of the kernel's branches around sink:
// anywhere in the field, on the sink, on its row or column (dy or dx = 0),
// within and just beyond MinDist, on a field edge or corner, beyond an
// edge, or with a NaN or infinite coordinate.
func kernelPoint(src *rng.Source, m *Model, sink geom.Point, kind int) geom.Point {
	f := m.Field()
	nan, inf := math.NaN(), math.Inf(1)
	switch kind % 12 {
	case 0:
		return src.InRect(f)
	case 1:
		return sink
	case 2:
		return geom.Pt(src.Uniform(f.Min.X, f.Max.X), sink.Y) // sink's row
	case 3:
		return geom.Pt(sink.X, src.Uniform(f.Min.Y, f.Max.Y)) // sink's column
	case 4:
		return src.InDisc(sink, m.MinDist())
	case 5:
		return src.InDisc(sink, 3*m.MinDist())
	case 6:
		return []geom.Point{geom.Pt(src.Uniform(f.Min.X, f.Max.X), f.Max.Y),
			geom.Pt(f.Min.X, src.Uniform(f.Min.Y, f.Max.Y))}[src.IntN(2)]
	case 7:
		return []geom.Point{f.Min, f.Max, geom.Pt(f.Min.X, f.Max.Y), geom.Pt(f.Max.X, f.Min.Y)}[src.IntN(4)]
	case 8:
		return geom.Pt(f.Max.X+src.Uniform(0, 1)*f.Width(), src.Uniform(f.Min.Y, f.Max.Y))
	case 9:
		return geom.Pt(src.Uniform(f.Min.X, f.Max.X), math.Nextafter(f.Min.Y, -inf))
	case 10:
		return []geom.Point{geom.Pt(nan, sink.Y), geom.Pt(sink.X, nan), geom.Pt(nan, nan),
			geom.Pt(inf, sink.Y), geom.Pt(-inf, sink.Y), geom.Pt(sink.X, inf), geom.Pt(sink.X, -inf)}[src.IntN(7)]
	default:
		return src.InRect(f)
	}
}

// checkKernelLanes compares the column of KernelVectorInto — kernelLanes
// then kernelLoop's tail, when AVX is in use — with kernelLoop alone, bit
// for bit. For a sink outside the field KernelVectorInto returns zeros
// without either loop, so the two loops are compared directly.
func checkKernelLanes(t *testing.T, m *Model, sink geom.Point, pts []geom.Point) {
	t.Helper()
	n := len(pts)
	slabs := m.Field().SlabsAt(sink)
	want := make([]float64, n)
	m.kernelLoop(slabs, sink, pts, want)
	got := make([]float64, n)
	for i := range got {
		got[i] = -7 // every entry must be written
	}
	if m.Field().Contains(sink) {
		m.KernelVectorInto(sink, pts, got)
	} else {
		done := 0
		if useAVX {
			done = m.kernelLanes(slabs, sink, pts, got)
		}
		m.kernelLoop(slabs, sink, pts[done:], got[done:])
		for i, v := range m.KernelVectorInto(sink, pts, make([]float64, n)) {
			if v != 0 {
				t.Fatalf("sink %v outside the field: entry %d = %v, want 0", sink, i, v)
			}
		}
	}
	for i := range pts {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("field %v sink %v point %d %v (n = %d): lanes %v (%#x), Go loop %v (%#x)",
				m.Field(), sink, i, pts[i], n, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func logKernelPath(t testing.TB) {
	if !useAVX {
		t.Log("AVX kernel column not in use (not amd64, or no AVX): only Go was compared with Go")
	}
}

// TestKernelLanesBitIdentical pins the AVX kernel column to the Go loop bit
// for bit, for n = 0..13, 90 and 360 (more than one 64-point block), on
// interior, corner, edge and outside sinks and points of every branch.
func TestKernelLanesBitIdentical(t *testing.T) {
	logKernelPath(t)
	fields := []geom.Rect{geom.NewRect(geom.Pt(0, 0), geom.Pt(30, 20)), geom.NewRect(geom.Pt(-7.5, 3), geom.Pt(-2.25, 40))}
	src := rng.New(75)
	lengths := []int{90, 360}
	for n := 0; n <= 13; n++ {
		lengths = append(lengths, n)
	}
	for _, f := range fields {
		for _, minDist := range []float64{0.8, 0} {
			m, err := New(f, minDist)
			if err != nil {
				t.Fatal(err)
			}
			c := f.Center()
			sinks := []geom.Point{
				f.Min, f.Max, geom.Pt(f.Min.X, f.Max.Y), geom.Pt(f.Max.X, f.Min.Y), // corners
				geom.Pt(f.Max.X, c.Y), geom.Pt(f.Min.X, c.Y), geom.Pt(c.X, f.Min.Y), geom.Pt(c.X, f.Max.Y), // edges
				c, src.InRect(f), src.InRect(f),
				geom.Pt(f.Max.X+1, c.Y), geom.Pt(c.X, f.Min.Y-2), // outside
			}
			for _, sink := range sinks {
				for _, n := range lengths {
					pts := make([]geom.Point, n)
					for i := range pts {
						pts[i] = kernelPoint(src, m, sink, src.IntN(12))
					}
					checkKernelLanes(t, m, sink, pts)
				}
			}
		}
	}
}

// FuzzKernelLanes drives the AVX kernel column against the Go loop on
// fuzzed fields, sinks (inside, on the boundary or outside) and point
// mixes.
func FuzzKernelLanes(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.5, 0.5, uint64(1), uint8(90))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, uint64(2), uint8(13))
	f.Add(0.9, 0.1, 0.99, 1.0, 0.5, uint64(3), uint8(64))
	f.Add(0.5, 0.5, 0.123, 1.5, -0.25, uint64(4), uint8(8))
	f.Fuzz(func(t *testing.T, offX, offY, shape, su, sv float64, seed uint64, nRaw uint8) {
		if math.IsNaN(su) || math.IsNaN(sv) || math.IsInf(su, 0) || math.IsInf(sv, 0) {
			t.Skip("non-finite sink coordinate")
		}
		r := fuzzRect(offX, offY, shape)
		m, err := New(r, math.Min(r.Width(), r.Height())/40)
		if err != nil {
			t.Fatal(err)
		}
		sink := lerpRect(r, su, sv)
		src := rng.New(seed)
		pts := make([]geom.Point, int(nRaw))
		for i := range pts {
			pts[i] = kernelPoint(src, m, sink, src.IntN(12))
		}
		checkKernelLanes(t, m, sink, pts)
	})
}
