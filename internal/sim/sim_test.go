package sim

import (
	"math"
	"slices"
	"testing"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/routing"
	"fluxtrack/internal/traffic"
)

func testNet(t testing.TB, n int, seed uint64) *network.Network {
	t.Helper()
	src := rng.New(seed)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: n, Kind: deploy.PerturbedGrid,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(geom.Square(30), pts, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// Packets returns all recorded transmissions sorted by time. The returned
// slice is shared; callers must not modify it.
func (s *Simulator) Packets() []Packet {
	s.finalize()
	return s.packets
}

// Reset drops every recorded packet while keeping the tree cache.
func (s *Simulator) Reset() {
	s.packets = s.packets[:0]
	s.sorted = true
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil network must error")
	}
	s, err := New(Config{Net: testNet(t, 100, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.PacketCapacity != 1 || s.cfg.HopLatency != 0.05 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

func TestCollectValidation(t *testing.T) {
	s, err := New(Config{Net: testNet(t, 100, 2)})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	if err := s.Collect(geom.Pt(-5, 5), 1, 0, src); err == nil {
		t.Error("outside-field origin must error")
	}
	if err := s.Collect(geom.Pt(5, 5), 0, 0, src); err == nil {
		t.Error("zero stretch must error")
	}
}

// TestPacketCountsMatchFluidFlux checks the core correspondence: with unit
// packet capacity and integer stretch, per-node packet counts over a full
// wave equal the fluid flux exactly.
func TestPacketCountsMatchFluidFlux(t *testing.T) {
	net := testNet(t, 400, 4)
	s, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	user := traffic.User{Pos: geom.Pt(14, 16), Stretch: 2, Active: true}
	if err := s.Collect(user.Pos, user.Stretch, 0, src); err != nil {
		t.Fatal(err)
	}
	fluid, err := traffic.NewSimulator(net).Flux([]traffic.User{user})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.NodeCounts(0, s.WaveDuration()+1)
	for i := range fluid {
		if counts[i] != fluid[i] {
			t.Fatalf("node %d: packet count %v != fluid flux %v", i, counts[i], fluid[i])
		}
	}
}

// TestFractionalStretchRoundsUp checks ceil rounding for fractional loads.
func TestFractionalStretchRoundsUp(t *testing.T) {
	net := testNet(t, 200, 6)
	s, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(geom.Pt(15, 15), 1.5, 0, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	counts := s.NodeCounts(0, s.WaveDuration()+1)
	tree, err := routing.Build(net, net.Nearest(geom.Pt(15, 15)))
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range tree.SubtreeSize {
		if sub == 0 {
			continue
		}
		want := math.Ceil(1.5 * float64(sub))
		if counts[i] != want {
			t.Fatalf("node %d (subtree %d): %v packets, want %v", i, sub, counts[i], want)
		}
	}
}

// TestWaveOrderingLeafToRoot verifies deeper rings transmit before the sink.
func TestWaveOrderingLeafToRoot(t *testing.T) {
	net := testNet(t, 300, 8)
	s, err := New(Config{Net: net, HopLatency: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sinkPos := geom.Pt(15, 15)
	if err := s.Collect(sinkPos, 1, 0, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	sink := net.Nearest(sinkPos)
	hops := net.HopsFrom(sink)
	// First transmission of the sink must come after the last transmission
	// of the deepest ring's earliest... simpler: every packet of a node at
	// hop h lies in slot (maxHop-h), so slot index recovered from time must
	// match.
	maxHop := 0
	for _, h := range hops {
		if h > maxHop {
			maxHop = h
		}
	}
	for _, p := range s.Packets() {
		h := hops[p.Node]
		if h < 0 {
			t.Fatalf("unreachable node %d transmitted", p.Node)
		}
		slot := int(p.Time / 0.1)
		if want := maxHop - h; slot != want {
			t.Fatalf("node %d at hop %d transmitted in slot %d, want %d", p.Node, h, slot, want)
		}
	}
}

// TestWindowTruncationLosesPackets verifies a window shorter than the wave
// captures strictly fewer packets.
func TestWindowTruncationLosesPackets(t *testing.T) {
	net := testNet(t, 300, 10)
	s, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(geom.Pt(10, 20), 2, 0, rng.New(11)); err != nil {
		t.Fatal(err)
	}
	full := sum(s.NodeCounts(0, s.WaveDuration()+1))
	half := sum(s.NodeCounts(0, s.WaveDuration()/2))
	if half >= full {
		t.Errorf("half window captured %v >= full %v", half, full)
	}
	if half == 0 {
		t.Error("half window captured nothing")
	}
}

// TestSniffCountsNeighborhood verifies a sniffer's count equals the sum of
// its audible nodes' transmissions.
func TestSniffCountsNeighborhood(t *testing.T) {
	net := testNet(t, 300, 12)
	s, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(geom.Pt(12, 12), 1, 0, rng.New(13)); err != nil {
		t.Fatal(err)
	}
	pos := geom.Pt(12, 12)
	got := s.Sniff([]geom.Point{pos}, 0, s.WaveDuration()+1)[0]
	counts := s.NodeCounts(0, s.WaveDuration()+1)
	var want float64
	for i := 0; i < net.Len(); i++ {
		if pos.Dist(net.Pos(i)) <= net.Radius() {
			want += counts[i]
		}
	}
	if got != want {
		t.Errorf("Sniff = %v, want %v", got, want)
	}
	if got == 0 {
		t.Error("sniffer near the sink heard nothing")
	}
}

// TestAggregatedFlattensFingerprint verifies TAG-style aggregation makes
// every participating node transmit exactly once, killing the flux peak.
func TestAggregatedFlattensFingerprint(t *testing.T) {
	net := testNet(t, 300, 14)
	s, err := New(Config{Net: net, Aggregated: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(geom.Pt(15, 15), 3, 0, rng.New(15)); err != nil {
		t.Fatal(err)
	}
	counts := s.NodeCounts(0, s.WaveDuration()+1)
	for i, c := range counts {
		if c != 0 && c != 1 {
			t.Fatalf("aggregated node %d transmitted %v packets, want 0 or 1", i, c)
		}
	}
	if peak := slices.Max(counts); peak != 1 {
		t.Errorf("aggregated peak = %v, want 1", peak)
	}
}

// TestMultipleCollectionsAccumulate verifies overlapping waves sum.
func TestMultipleCollectionsAccumulate(t *testing.T) {
	net := testNet(t, 200, 16)
	s, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(17)
	if err := s.Collect(geom.Pt(8, 8), 1, 0, src); err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(geom.Pt(22, 22), 1, 0, src); err != nil {
		t.Fatal(err)
	}
	fluid, err := traffic.NewSimulator(net).Flux([]traffic.User{
		{Pos: geom.Pt(8, 8), Stretch: 1, Active: true},
		{Pos: geom.Pt(22, 22), Stretch: 1, Active: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.NodeCounts(0, s.WaveDuration()+1)
	for i := range fluid {
		if counts[i] != fluid[i] {
			t.Fatalf("node %d: %v packets, want %v", i, counts[i], fluid[i])
		}
	}
}

func TestReset(t *testing.T) {
	net := testNet(t, 100, 18)
	s, err := New(Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(geom.Pt(15, 15), 1, 0, rng.New(19)); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := sum(s.NodeCounts(0, 1e9)); got != 0 {
		t.Errorf("after Reset counts = %v, want 0", got)
	}
	if len(s.trees) == 0 {
		t.Error("Reset dropped the tree cache")
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func BenchmarkCollect(b *testing.B) {
	net := testNet(b, 900, 22)
	s, err := New(Config{Net: net})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Collect(geom.Pt(15, 15), 2, float64(i), src); err != nil {
			b.Fatal(err)
		}
		if i%10 == 9 {
			s.Reset() // keep memory bounded
		}
	}
}
