package fluxmodel

import (
	"math"
	"testing"
	"testing/quick"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

func mustModel(t testing.TB, field geom.Rect, minDist float64) *Model {
	t.Helper()
	m, err := New(field, minDist)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geom.Rect{}, 1); err == nil {
		t.Error("degenerate field must error")
	}
	m, err := New(geom.Square(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.MinDist() != 1e-6 {
		t.Errorf("default minDist = %v, want 1e-6", m.MinDist())
	}
}

func TestKernelBasicGeometry(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0)
	sink := geom.Pt(15, 15)
	// Node east of the center: d = 5, ray exits at x=30 so l = 15.
	got := m.Kernel(sink, geom.Pt(20, 15))
	want := (15.0*15 - 5.0*5) / (2 * 5)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Kernel = %v, want %v", got, want)
	}
}

func TestKernelZeroOutsideField(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0)
	if got := m.Kernel(geom.Pt(15, 15), geom.Pt(31, 15)); got != 0 {
		t.Errorf("Kernel outside field = %v, want 0", got)
	}
	if got := m.Kernel(geom.Pt(-1, 15), geom.Pt(15, 15)); got != 0 {
		t.Errorf("Kernel with outside sink = %v, want 0", got)
	}
}

func TestKernelAtBoundaryIsZero(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0)
	sink := geom.Pt(15, 15)
	// A node on the boundary along the ray has l == d, so zero flux.
	if got := m.Kernel(sink, geom.Pt(30, 15)); math.Abs(got) > 1e-9 {
		t.Errorf("boundary Kernel = %v, want 0", got)
	}
}

func TestKernelDecreasesWithDistance(t *testing.T) {
	// Along a fixed ray the kernel must decrease monotonically in d.
	m := mustModel(t, geom.Square(30), 0.5)
	sink := geom.Pt(5, 15)
	prev := math.Inf(1)
	for d := 1.0; d < 24; d += 0.5 {
		f := m.Kernel(sink, geom.Pt(5+d, 15))
		if f > prev {
			t.Fatalf("kernel increased with distance at d=%v: %v > %v", d, f, prev)
		}
		prev = f
	}
}

func TestKernelNonNegativeProperty(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0.5)
	f := func(sx, sy, px, py uint16) bool {
		sink := geom.Pt(float64(sx%3000)/100, float64(sy%3000)/100)
		p := geom.Pt(float64(px%3000)/100, float64(py%3000)/100)
		k := m.Kernel(sink, p)
		return k >= 0 && !math.IsNaN(k) && !math.IsInf(k, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestNewDistanceClamp pins New's handling of the distance clamp: a NaN
// or infinite clamp is rejected (a NaN one used to be accepted and switch
// the clamp off, leaving the kernel +Inf at the sink), a non-positive one
// means the 1e-6 epsilon, and every accepted model stays finite at the sink
// on both the reference kernel and the column path.
func TestNewDistanceClamp(t *testing.T) {
	cases := []struct {
		minDist float64
		want    float64 // the model's clamp; 0 = New must error
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 1e-6},
		{-1, 1e-6},
		{0.5, 0.5},
	}
	sink := geom.Pt(15, 15)
	for _, c := range cases {
		m, err := New(geom.Square(30), c.minDist)
		if c.want == 0 {
			if err == nil {
				t.Errorf("New(minDist %v) accepted, want an error", c.minDist)
			}
			continue
		}
		if err != nil {
			t.Errorf("New(minDist %v): %v", c.minDist, err)
			continue
		}
		if m.MinDist() != c.want {
			t.Errorf("New(minDist %v).MinDist() = %v, want %v", c.minDist, m.MinDist(), c.want)
		}
		k := m.Kernel(sink, sink)
		col := m.KernelVector(sink, []geom.Point{sink})[0]
		if math.IsInf(k, 0) || math.IsNaN(k) || math.IsInf(col, 0) || math.IsNaN(col) {
			t.Errorf("minDist %v: kernel at the sink = %v, column %v, want finite", c.minDist, k, col)
		}
	}
}

func TestKernelSinkCoincidence(t *testing.T) {
	m := mustModel(t, geom.Square(30), 1)
	// p == sink: must stay finite thanks to the distance clamp.
	k := m.Kernel(geom.Pt(15, 15), geom.Pt(15, 15))
	if math.IsInf(k, 0) || math.IsNaN(k) || k < 0 {
		t.Errorf("coincident Kernel = %v, want finite non-negative", k)
	}
}

func TestFluxAtScaling(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0)
	sink, p := geom.Pt(10, 10), geom.Pt(14, 10)
	if got, want := m.FluxAt(sink, p, 2), 2*m.Kernel(sink, p); got != want {
		t.Errorf("FluxAt = %v, want %v", got, want)
	}
}

func TestPredictFluxSuperposition(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0.5)
	sinks := []geom.Point{geom.Pt(8, 8), geom.Pt(22, 22)}
	cs := []float64{1.5, 2.5}
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(15, 15), geom.Pt(25, 20)}
	got, err := m.PredictFlux(sinks, cs, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want := cs[0]*m.Kernel(sinks[0], p) + cs[1]*m.Kernel(sinks[1], p)
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("PredictFlux[%d] = %v, want %v", i, got[i], want)
		}
	}
	if _, err := m.PredictFlux(sinks, []float64{1}, pts); err == nil {
		t.Error("mismatched sinks/factors must error")
	}
}

func buildNet(t testing.TB, n int, seed uint64, kind deploy.Kind, radius float64) *network.Network {
	t.Helper()
	src := rng.New(seed)
	pts, err := deploy.Generate(deploy.Config{Field: geom.Square(30), N: n, Kind: kind}, src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(geom.Square(30), pts, radius)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCalibrate(t *testing.T) {
	net := buildNet(t, 900, 1, deploy.PerturbedGrid, 2.4)
	cal, err := Calibrate(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cal.HopLength <= 0 || cal.HopLength > 2.4 {
		t.Errorf("hop length = %v, want in (0, 2.4]", cal.HopLength)
	}
	if cal.AvgDegree < 10 {
		t.Errorf("avg degree = %v, want >= 10", cal.AvgDegree)
	}
	if _, err := Calibrate(net, -1); err == nil {
		t.Error("invalid reference node must error")
	}
}

func TestForNetwork(t *testing.T) {
	net := buildNet(t, 900, 2, deploy.PerturbedGrid, 2.4)
	cal, err := Calibrate(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ForNetwork(net, cal)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.MinDist(), cal.HopLength/2; got != want {
		t.Errorf("minDist = %v, want %v", got, want)
	}
}

// TestModelApproximatesSimulatedFlux is the repository's version of the
// paper's Figure 3(a) claim: for a single user in a reasonably dense
// network, 80%+ of nodes (3+ hops out, where the model is meant to apply)
// have relative approximation error below 0.4.
func TestModelApproximatesSimulatedFlux(t *testing.T) {
	net := buildNet(t, 900, 3, deploy.PerturbedGrid, 2.4)
	sim := traffic.NewSimulator(net)
	user := traffic.User{Pos: geom.Pt(14, 16), Stretch: 2, Active: true}
	measured, err := sim.Flux([]traffic.User{user})
	if err != nil {
		t.Fatal(err)
	}
	// Two smoothing passes, as the paper's neighborhood averaging suggests.
	smoothed, err := net.SmoothOverNeighborhood(measured)
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err = net.SmoothOverNeighborhood(smoothed)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(net, net.Nearest(user.Pos))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ForNetwork(net, cal)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(net, m, user.Pos, smoothed, user.Stretch, cal.HopLength, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.ErrRates) < 100 {
		t.Fatalf("only %d error-rate samples", len(acc.ErrRates))
	}
	// The paper reports 80%+ of nodes under 0.4 error rate at its densest
	// setting; our deterministic single-tree simulator is somewhat noisier,
	// so assert the shape with margin (see EXPERIMENTS.md for measured CDFs).
	frac := stats.CDFAt(acc.ErrRates, 0.4)
	if frac < 0.6 {
		t.Errorf("fraction of nodes with error rate <= 0.4 is %v, want >= 0.6 (paper: 80%%+)", frac)
	}
	if acc.EnergyPreserved3Plus < 0.5 {
		t.Errorf("flux amount carried by 3+ hop nodes = %v, want >= 0.5 (paper: 70%%+)", acc.EnergyPreserved3Plus)
	}
}

func TestAccuracyByHopDecreasing(t *testing.T) {
	// The measured by-hop average flux must decrease with hop distance
	// (inner rings relay more traffic).
	net := buildNet(t, 900, 4, deploy.PerturbedGrid, 2.4)
	sim := traffic.NewSimulator(net)
	user := traffic.User{Pos: geom.Pt(15, 15), Stretch: 1, Active: true}
	measured, err := sim.Flux([]traffic.User{user})
	if err != nil {
		t.Fatal(err)
	}
	cal, _ := Calibrate(net, net.Nearest(user.Pos))
	m, _ := ForNetwork(net, cal)
	acc, err := Accuracy(net, m, user.Pos, measured, 1, cal.HopLength, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compare hop 1 vs hop 4 and hop 2 vs hop 5: strong decay expected.
	get := func(h int) float64 {
		for _, b := range acc.ByHop {
			if b.Hop == h && b.N > 0 {
				return b.Measured
			}
		}
		t.Fatalf("no data at hop %d", h)
		return 0
	}
	if !(get(1) > get(4)) || !(get(2) > get(5)) {
		t.Errorf("by-hop measured flux not decreasing: h1=%v h4=%v h2=%v h5=%v",
			get(1), get(4), get(2), get(5))
	}
}

func TestAccuracyValidation(t *testing.T) {
	net := buildNet(t, 100, 5, deploy.PerturbedGrid, 3)
	m := mustModel(t, geom.Square(30), 0.5)
	if _, err := Accuracy(net, m, geom.Pt(5, 5), []float64{1}, 1, 1, 0); err == nil {
		t.Error("mismatched measured length must error")
	}
	measured := make([]float64, net.Len())
	if _, err := Accuracy(net, m, geom.Pt(5, 5), measured, 1, 0, 0); err == nil {
		t.Error("zero hop length must error")
	}
}

func BenchmarkKernel(b *testing.B) {
	m := mustModel(b, geom.Square(30), 0.6)
	sink := geom.Pt(13, 17)
	p := geom.Pt(22, 9)
	for i := 0; i < b.N; i++ {
		_ = m.Kernel(sink, p)
	}
}

func BenchmarkPredictFlux90Nodes3Users(b *testing.B) {
	m := mustModel(b, geom.Square(30), 0.6)
	src := rng.New(1)
	pts := make([]geom.Point, 90)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	sinks := []geom.Point{geom.Pt(5, 5), geom.Pt(15, 20), geom.Pt(25, 10)}
	cs := []float64{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictFlux(sinks, cs, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKernelVectorInto: the allocation-free form matches KernelVector
// exactly, including the outside-sink and outside-point zero cases.
func TestKernelVectorInto(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0.6)
	src := rng.New(42)
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	pts[7] = geom.Pt(-3, 5) // outside the field: kernel must be zero there
	dst := make([]float64, len(pts))
	for _, sink := range []geom.Point{geom.Pt(4, 9), geom.Pt(29.5, 0.5), geom.Pt(-1, 10)} {
		want := m.KernelVector(sink, pts)
		got := m.KernelVectorInto(sink, pts, dst)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sink %v: KernelVectorInto[%d] = %v, KernelVector = %v", sink, i, got[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("KernelVectorInto with mismatched destination must panic")
		}
	}()
	m.KernelVectorInto(geom.Pt(1, 1), pts, make([]float64, 3))
}

// TestKernelVectorIntoNoAllocs guards the hoisted-sink-check fast path.
func TestKernelVectorIntoNoAllocs(t *testing.T) {
	m := mustModel(t, geom.Square(30), 0.6)
	src := rng.New(7)
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = src.InRect(m.Field())
	}
	dst := make([]float64, len(pts))
	sink := geom.Pt(12, 18)
	allocs := testing.AllocsPerRun(50, func() {
		m.KernelVectorInto(sink, pts, dst)
	})
	if allocs != 0 {
		t.Fatalf("KernelVectorInto allocates %.1f times per call, want 0", allocs)
	}
}
