package network

import (
	"math"
	"testing"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// lineNetwork builds a 5-node path 0-1-2-3-4 spaced 1 apart with radius 1.2.
func lineNetwork(t *testing.T) *Network {
	t.Helper()
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0),
	}
	n, err := New(geom.NewRect(geom.Pt(0, 0), geom.Pt(4, 1)), pts, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// LargestComponent returns the node indices of the largest connected
// component.
func (n *Network) LargestComponent() []int {
	comp := make([]int, len(n.pos))
	for i := range comp {
		comp[i] = -1
	}
	bestID, bestSize := -1, 0
	sizes := []int{}
	for i := range n.pos {
		if comp[i] >= 0 {
			continue
		}
		id := len(sizes)
		size := 0
		queue := []int32{int32(i)}
		comp[i] = id
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			size++
			for _, w := range n.adj[v] {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
		if size > bestSize {
			bestID, bestSize = id, size
		}
	}
	out := make([]int, 0, bestSize)
	for i, id := range comp {
		if id == bestID {
			out = append(out, i)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	field := geom.Square(10)
	if _, err := New(field, nil, 1); err == nil {
		t.Error("empty positions must error")
	}
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(field, []geom.Point{geom.Pt(1, 1)}, r); err == nil {
			t.Errorf("radius %v must error", r)
		}
	}
	if _, err := New(field, []geom.Point{geom.Pt(11, 1)}, 1); err == nil {
		t.Error("out-of-field node must error")
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	src := rng.New(1)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: 400, Kind: deploy.UniformRandom,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(geom.Square(30), pts, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.Len(); i++ {
		for _, j := range n.Neighbors(i) {
			found := false
			for _, k := range n.Neighbors(int(j)) {
				if int(k) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", i, j)
			}
		}
	}
}

func TestAdjacencyMatchesBruteForce(t *testing.T) {
	src := rng.New(7)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(20), N: 150, Kind: deploy.UniformRandom,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 3.0
	n, err := New(geom.Square(20), pts, radius)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		want := map[int]bool{}
		for j := range pts {
			if i != j && pts[i].Dist(pts[j]) <= radius {
				want[j] = true
			}
		}
		got := map[int]bool{}
		for _, j := range n.Neighbors(i) {
			got[int(j)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("node %d missing neighbor %d", i, j)
			}
		}
	}
}

func TestLineHops(t *testing.T) {
	n := lineNetwork(t)
	hops := n.HopsFrom(0)
	want := []int{0, 1, 2, 3, 4}
	for i, w := range want {
		if hops[i] != w {
			t.Errorf("hops[%d] = %d, want %d", i, hops[i], w)
		}
	}
}

func TestHopsUnreachable(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	n, err := New(geom.Square(10), pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	hops := n.HopsFrom(0)
	if hops[1] != -1 {
		t.Errorf("hops to isolated node = %d, want -1", hops[1])
	}
}

func TestNearest(t *testing.T) {
	n := lineNetwork(t)
	tests := []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(0.1, 0), 0},
		{geom.Pt(2.4, 0.5), 2},
		{geom.Pt(100, 100), 4},
		{geom.Pt(0.5, 0), 0}, // tie breaks to lower index
	}
	for _, tt := range tests {
		if got := n.Nearest(tt.p); got != tt.want {
			t.Errorf("Nearest(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestLargestComponent(t *testing.T) {
	// Two clusters: {0,1,2} connected and {3,4} connected, far apart.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0),
		geom.Pt(20, 20), geom.Pt(21, 20),
	}
	n, err := New(geom.Square(30), pts, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	comp := n.LargestComponent()
	if len(comp) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(comp))
	}
	for i, want := range []int{0, 1, 2} {
		if comp[i] != want {
			t.Errorf("comp[%d] = %d, want %d", i, comp[i], want)
		}
	}
}

func TestAvgDegreePaperSetup(t *testing.T) {
	// Paper §5.A: 900 nodes on a 30x30 field, R = 2.4 gives average degree
	// around 18 (900 * pi * 2.4^2 / 900 = 18.1 in expectation).
	src := rng.New(2024)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: 900, Kind: deploy.PerturbedGrid,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(geom.Square(30), pts, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if d := n.AvgDegree(); d < 13 || d > 20 {
		t.Errorf("average degree = %v, want ~18 (boundary effects allow 13-20)", d)
	}
}

func TestRadialHopProgress(t *testing.T) {
	n := lineNetwork(t)
	// Along the path, every node's dist/hops is exactly 1.
	if got := n.RadialHopProgress(0, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("RadialHopProgress = %v, want 1", got)
	}
	// minHop filtering: with minHop 3 only nodes 3 and 4 count; still 1.
	if got := n.RadialHopProgress(0, 3); math.Abs(got-1) > 1e-9 {
		t.Errorf("RadialHopProgress(minHop=3) = %v, want 1", got)
	}
	// minHop below 1 clamps to 1 rather than dividing by hop 0.
	if got := n.RadialHopProgress(0, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("RadialHopProgress(minHop=0) = %v, want 1", got)
	}
}

func TestRadialHopProgressIsolated(t *testing.T) {
	n, err := New(geom.Square(10), []geom.Point{geom.Pt(5, 5)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.RadialHopProgress(0, 1); got != 2 {
		t.Errorf("isolated RadialHopProgress = %v, want radius fallback 2", got)
	}
}

func TestRadialHopProgressBounds(t *testing.T) {
	// In a dense 2D network the radial progress per hop lies in
	// (radius/2, radius]: BFS paths are near-straight.
	n := paperNetworkHelper(t, 99)
	got := n.RadialHopProgress(n.Nearest(geom.Pt(15, 15)), 3)
	if got <= 1.2 || got > 2.4 {
		t.Errorf("RadialHopProgress = %v, want in (1.2, 2.4]", got)
	}
}

func paperNetworkHelper(t testing.TB, seed uint64) *Network {
	t.Helper()
	src := rng.New(seed)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: 900, Kind: deploy.PerturbedGrid,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(geom.Square(30), pts, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSmoothOverNeighborhood(t *testing.T) {
	n := lineNetwork(t)
	vals := []float64{10, 0, 0, 0, 10}
	sm, err := n.SmoothOverNeighborhood(vals)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 has neighbors {1}: (10+0)/2 = 5.
	if math.Abs(sm[0]-5) > 1e-12 {
		t.Errorf("sm[0] = %v, want 5", sm[0])
	}
	// Node 2 has neighbors {1,3}: (0+0+0)/3 = 0.
	if sm[2] != 0 {
		t.Errorf("sm[2] = %v, want 0", sm[2])
	}
	if _, err := n.SmoothOverNeighborhood([]float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func BenchmarkNew900(b *testing.B) {
	src := rng.New(5)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: 900, Kind: deploy.PerturbedGrid,
	}, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(geom.Square(30), pts, 2.4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHopsFrom(b *testing.B) {
	src := rng.New(5)
	pts, _ := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: 900, Kind: deploy.PerturbedGrid,
	}, src)
	n, err := New(geom.Square(30), pts, 2.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.HopsFrom(i % n.Len())
	}
}
