package rng

import (
	"math"
	"testing"
	"testing/quick"

	"fluxtrack/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 coincide on %d/100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestIntNRangeAndCoverage(t *testing.T) {
	s := New(11)
	const n = 10
	seen := make([]int, n)
	for i := 0; i < 10000; i++ {
		v := s.IntN(n)
		if v < 0 || v >= n {
			t.Fatalf("IntN out of range: %v", v)
		}
		seen[v]++
	}
	for i, c := range seen {
		if c == 0 {
			t.Errorf("value %d never produced", i)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestParetoBounds(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		v := s.Pareto(1, 100, 1.2)
		if v < 1-1e-9 || v > 100+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
	if got := s.Pareto(5, 5, 1); got != 5 {
		t.Errorf("degenerate Pareto = %v, want 5", got)
	}
}

func TestInRect(t *testing.T) {
	s := New(23)
	r := geom.NewRect(geom.Pt(-2, 3), geom.Pt(4, 9))
	for i := 0; i < 10000; i++ {
		p := s.InRect(r)
		if !r.Contains(p) {
			t.Fatalf("InRect produced %v outside %v", p, r)
		}
	}
}

func TestInDiscRadiusAndUniformity(t *testing.T) {
	s := New(29)
	c := geom.Pt(10, 10)
	const radius = 5.0
	const n = 100000
	inner := 0 // count within radius/sqrt(2): should be ~half by area
	for i := 0; i < n; i++ {
		p := s.InDisc(c, radius)
		d := c.Dist(p)
		if d > radius+1e-9 {
			t.Fatalf("InDisc produced point at distance %v > %v", d, radius)
		}
		if d <= radius/math.Sqrt2 {
			inner++
		}
	}
	frac := float64(inner) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("inner-disc fraction = %v, want ~0.5 (area uniformity)", frac)
	}
}

func TestInDiscClampedStaysInField(t *testing.T) {
	s := New(31)
	field := geom.Square(30)
	// Center near a corner so much of the disc is outside.
	c := geom.Pt(0.5, 0.5)
	for i := 0; i < 5000; i++ {
		p := s.InDiscClamped(c, 5, field)
		if !field.Contains(p) {
			t.Fatalf("InDiscClamped produced %v outside field", p)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%64) + 1
		p := New(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleKDistinct(t *testing.T) {
	s := New(37)
	idx := s.SampleK(100, 30)
	if len(idx) != 30 {
		t.Fatalf("SampleK returned %d indices, want 30", len(idx))
	}
	seen := map[int]bool{}
	for _, v := range idx {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("SampleK produced invalid or duplicate index %d", v)
		}
		seen[v] = true
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SampleK(2, 3) did not panic")
		}
	}()
	New(1).SampleK(2, 3)
}

func TestWeighted(t *testing.T) {
	s := New(41)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		k := s.Weighted(weights)
		if k < 0 || k >= len(weights) {
			t.Fatalf("Weighted returned invalid index %d", k)
		}
		counts[k]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight indices sampled: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.15 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedDegenerate(t *testing.T) {
	s := New(43)
	if got := s.Weighted(nil); got != -1 {
		t.Errorf("Weighted(nil) = %d, want -1", got)
	}
	if got := s.Weighted([]float64{0, 0}); got != -1 {
		t.Errorf("Weighted(zeros) = %d, want -1", got)
	}
	if got := s.Weighted([]float64{0, 0, 5}); got != 2 {
		t.Errorf("Weighted(single positive) = %d, want 2", got)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkInDisc(b *testing.B) {
	s := New(1)
	c := geom.Pt(5, 5)
	for i := 0; i < b.N; i++ {
		_ = s.InDisc(c, 5)
	}
}
