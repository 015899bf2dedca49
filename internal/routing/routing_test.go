package routing

import (
	"math"
	"testing"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/rng"
)

func lineNetwork(t *testing.T) *network.Network {
	t.Helper()
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0),
	}
	n, err := network.New(geom.NewRect(geom.Pt(0, 0), geom.Pt(4, 1)), pts, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func paperNetwork(t testing.TB, seed uint64) *network.Network {
	t.Helper()
	src := rng.New(seed)
	pts, err := deploy.Generate(deploy.Config{
		Field: geom.Square(30), N: 900, Kind: deploy.PerturbedGrid,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(geom.Square(30), pts, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Reached returns the number of nodes covered by the tree (including the
// root itself).
func (t *Tree) Reached() int {
	count := 0
	for _, h := range t.Hops {
		if h >= 0 {
			count++
		}
	}
	return count
}

// Flux returns the per-node traffic flux induced by this tree when every
// covered node generates stretch units of data: flux[i] = stretch *
// SubtreeSize[i]. Nodes outside the tree carry zero flux.
func (t *Tree) Flux(stretch float64) []float64 {
	out := make([]float64, len(t.SubtreeSize))
	for i, s := range t.SubtreeSize {
		out[i] = stretch * float64(s)
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	n := lineNetwork(t)
	if _, err := Build(n, -1); err == nil {
		t.Error("negative root must error")
	}
	if _, err := Build(n, 5); err == nil {
		t.Error("out-of-range root must error")
	}
}

func TestLineTreeStructure(t *testing.T) {
	n := lineNetwork(t)
	tr, err := Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantParent := []int{-1, 0, 1, 2, 3}
	wantSize := []int{5, 4, 3, 2, 1}
	for i := range wantParent {
		if tr.Parent[i] != wantParent[i] {
			t.Errorf("Parent[%d] = %d, want %d", i, tr.Parent[i], wantParent[i])
		}
		if tr.SubtreeSize[i] != wantSize[i] {
			t.Errorf("SubtreeSize[%d] = %d, want %d", i, tr.SubtreeSize[i], wantSize[i])
		}
	}
	if tr.Reached() != 5 {
		t.Errorf("Reached = %d, want 5", tr.Reached())
	}
}

func TestLineTreeMiddleRoot(t *testing.T) {
	n := lineNetwork(t)
	tr, err := Build(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Root subtree covers everything; each arm decays 2, 1.
	if tr.SubtreeSize[2] != 5 {
		t.Errorf("root subtree = %d, want 5", tr.SubtreeSize[2])
	}
	if tr.SubtreeSize[1] != 2 || tr.SubtreeSize[3] != 2 {
		t.Errorf("arm subtrees = %d, %d, want 2, 2", tr.SubtreeSize[1], tr.SubtreeSize[3])
	}
	if tr.SubtreeSize[0] != 1 || tr.SubtreeSize[4] != 1 {
		t.Errorf("leaf subtrees = %d, %d, want 1, 1", tr.SubtreeSize[0], tr.SubtreeSize[4])
	}
}

func TestTreeInvariants(t *testing.T) {
	n := paperNetwork(t, 42)
	tr, err := Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Invariant 1: root subtree size equals reached count.
	if tr.SubtreeSize[tr.Root] != tr.Reached() {
		t.Errorf("root subtree %d != reached %d", tr.SubtreeSize[tr.Root], tr.Reached())
	}
	// Invariant 2: every non-root reached node has a parent one hop closer.
	for i := range tr.Parent {
		if i == tr.Root || tr.Hops[i] < 0 {
			continue
		}
		p := tr.Parent[i]
		if p < 0 {
			t.Fatalf("reached node %d has no parent", i)
		}
		if tr.Hops[p] != tr.Hops[i]-1 {
			t.Fatalf("node %d (hops %d) has parent %d (hops %d)", i, tr.Hops[i], p, tr.Hops[p])
		}
	}
	// Invariant 3: parent subtree is strictly larger than child subtree.
	for i, p := range tr.Parent {
		if p >= 0 && tr.SubtreeSize[p] <= tr.SubtreeSize[i] {
			t.Fatalf("subtree monotonicity violated at %d -> %d", i, p)
		}
	}
	// Invariant 4: sum of subtree sizes at each hop ring equals the number
	// of nodes at or beyond that ring (conservation of relayed data).
	maxHop := 0
	for _, h := range tr.Hops {
		if h > maxHop {
			maxHop = h
		}
	}
	for h := 1; h <= maxHop; h++ {
		ringSum, beyond := 0, 0
		for i, hi := range tr.Hops {
			if hi == h {
				ringSum += tr.SubtreeSize[i]
			}
			if hi >= h {
				beyond++
			}
		}
		if ringSum != beyond {
			t.Fatalf("hop %d: ring subtree sum %d != nodes beyond %d", h, ringSum, beyond)
		}
	}
}

// TestBuildUnreached: a node outside the root's component has no parent,
// an empty subtree, and is not counted as reached.
func TestBuildUnreached(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(9, 9)}
	n, err := network.New(geom.Square(10), pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parent[1] != -1 || tr.Hops[1] != -1 {
		t.Errorf("unreached Parent, Hops = %d, %d, want -1, -1", tr.Parent[1], tr.Hops[1])
	}
	if tr.SubtreeSize[1] != 0 {
		t.Errorf("unreached SubtreeSize = %d, want 0", tr.SubtreeSize[1])
	}
	if tr.Reached() != 1 {
		t.Errorf("Reached = %d, want 1", tr.Reached())
	}
}

func TestFlux(t *testing.T) {
	n := lineNetwork(t)
	tr, err := Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	flux := tr.Flux(2)
	want := []float64{10, 8, 6, 4, 2}
	for i := range want {
		if flux[i] != want[i] {
			t.Errorf("flux[%d] = %v, want %v", i, flux[i], want[i])
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	n := paperNetwork(t, 7)
	a, err := Build(n, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(n, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] {
			t.Fatalf("non-deterministic parent at %d", i)
		}
	}
}

func BenchmarkBuild900(b *testing.B) {
	n := paperNetwork(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(n, i%n.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// treeInvariants asserts the structural contract every aggregation tree must
// satisfy regardless of how parents were chosen.
func treeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.SubtreeSize[tr.Root] != tr.Reached() {
		t.Errorf("root subtree %d != reached %d", tr.SubtreeSize[tr.Root], tr.Reached())
	}
	for i := range tr.Parent {
		if i == tr.Root || tr.Hops[i] < 0 {
			continue
		}
		p := tr.Parent[i]
		if p < 0 {
			t.Fatalf("reached node %d has no parent", i)
		}
		if tr.Hops[p] != tr.Hops[i]-1 {
			t.Fatalf("node %d (hops %d) has parent %d (hops %d)", i, tr.Hops[i], p, tr.Hops[p])
		}
	}
	for i, p := range tr.Parent {
		if p >= 0 && tr.SubtreeSize[p] <= tr.SubtreeSize[i] {
			t.Fatalf("subtree monotonicity violated at %d -> %d", i, p)
		}
	}
}

// TestBuildRandomizedZeroJitter: with randomization off — Build, jitter 0
// under any seed, or a NaN jitter — every reached non-root node's parent is
// the nearest of its neighbors one hop closer to the root, the lowest index
// winning ties. The expected parent is recomputed here from the network
// alone, not from another tree build. The unit lattice adds exact ties,
// which the perturbed paper network never has.
func TestBuildRandomizedZeroJitter(t *testing.T) {
	var lattice []geom.Point
	for i := 0; i < 16; i++ {
		lattice = append(lattice, geom.Pt(float64(i%4), float64(i/4)))
	}
	latticeNet, err := network.New(geom.Square(3), lattice, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []struct {
		name string
		n    *network.Network
		root int
	}{
		{"paper", paperNetwork(t, 11), 5},
		{"lattice", latticeNet, 0},
	} {
		n, root := nw.n, nw.root
		hops := n.HopsFrom(root)
		want := make([]int, n.Len())
		for i := range want {
			want[i] = -1
			if i == root || hops[i] < 0 {
				continue
			}
			for _, j := range n.Neighbors(i) {
				c := int(j)
				if hops[c] != hops[i]-1 {
					continue
				}
				if w := want[i]; w < 0 {
					want[i] = c
				} else if d, dw := n.Pos(i).Dist(n.Pos(c)), n.Pos(i).Dist(n.Pos(w)); d < dw || (d == dw && c < w) {
					want[i] = c
				}
			}
		}
		builds := []struct {
			name  string
			build func() (*Tree, error)
		}{
			{"Build", func() (*Tree, error) { return Build(n, root) }},
			{"jitter 0 seed 0", func() (*Tree, error) { return BuildRandomized(n, root, 0, 0) }},
			{"jitter 0 seed 99", func() (*Tree, error) { return BuildRandomized(n, root, 0, 99) }},
			{"jitter NaN", func() (*Tree, error) { return BuildRandomized(n, root, math.NaN(), 99) }},
		}
		for _, b := range builds {
			tr, err := b.build()
			if err != nil {
				t.Fatalf("%s %s: %v", nw.name, b.name, err)
			}
			for i := range want {
				if tr.Parent[i] != want[i] {
					t.Fatalf("%s %s: parent[%d] = %d, want nearest closer neighbor %d",
						nw.name, b.name, i, tr.Parent[i], want[i])
				}
			}
		}
	}
}

// TestBuildRandomizedInvariants: full route randomization still produces a
// valid shortest-path aggregation tree — only the choice among equal-hop
// parents changes, never the hop counts.
func TestBuildRandomizedInvariants(t *testing.T) {
	n := paperNetwork(t, 11)
	plain, err := Build(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := BuildRandomized(n, 5, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	treeInvariants(t, rnd)
	diff := 0
	for i := range plain.Parent {
		if plain.Hops[i] != rnd.Hops[i] {
			t.Fatalf("node %d: hops %d != Build's %d (randomization must keep shortest paths)",
				i, rnd.Hops[i], plain.Hops[i])
		}
		if plain.Parent[i] != rnd.Parent[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("jitter 1 changed no parent choices on a 900-node network")
	}
}

// TestBuildRandomizedDeterminism: same seed, same tree; different seed,
// different tree. The draws are hashed per (seed, root, node), so this holds
// at any call order.
func TestBuildRandomizedDeterminism(t *testing.T) {
	n := paperNetwork(t, 11)
	a, err := BuildRandomized(n, 5, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRandomized(n, 5, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildRandomized(n, 5, 0.5, 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] {
			t.Fatalf("same-seed trees differ at node %d", i)
		}
		if a.Parent[i] != c.Parent[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 42 and 43 produced identical randomized trees")
	}
}
