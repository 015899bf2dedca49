package traffic

import (
	"fmt"
	"math"
	"testing"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/rng"
)

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

// PeakNode returns the index of the node carrying the maximum flux and that
// flux value. It is the primitive of the briefing baseline (§3.C): with a
// single user, the flux peak sits at the user's sink.
func PeakNode(flux []float64) (idx int, peak float64) {
	idx = -1
	for i, f := range flux {
		if idx < 0 || f > peak {
			idx, peak = i, f
		}
	}
	return idx, peak
}

func TestFluxSingleUserPeakAtSink(t *testing.T) {
	net := paperNetwork(t, 1)
	sim := NewSimulator(net)
	user := User{Pos: geom.Pt(15, 15), Stretch: 2, Active: true}
	flux, err := sim.Flux([]User{user})
	if err != nil {
		t.Fatal(err)
	}
	peakIdx, peak := PeakNode(flux)
	sink := net.Nearest(user.Pos)
	if peakIdx != sink {
		t.Errorf("flux peak at node %d, want sink %d", peakIdx, sink)
	}
	// The sink relays all reachable data: stretch * nodes reachable from it.
	reached := 0
	for _, h := range net.HopsFrom(sink) {
		if h >= 0 {
			reached++
		}
	}
	if want := 2 * float64(reached); peak != want {
		t.Errorf("peak flux = %v, want %v", peak, want)
	}
}

func TestFluxAdditivity(t *testing.T) {
	net := paperNetwork(t, 2)
	sim := NewSimulator(net)
	u1 := User{Pos: geom.Pt(8, 8), Stretch: 1.5, Active: true}
	u2 := User{Pos: geom.Pt(22, 20), Stretch: 2.5, Active: true}
	f1, err := sim.Flux([]User{u1})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sim.Flux([]User{u2})
	if err != nil {
		t.Fatal(err)
	}
	both, err := sim.Flux([]User{u1, u2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range both {
		if math.Abs(both[i]-(f1[i]+f2[i])) > 1e-9 {
			t.Fatalf("flux not additive at node %d: %v vs %v + %v", i, both[i], f1[i], f2[i])
		}
	}
}

func TestFluxInactiveAndZeroStretch(t *testing.T) {
	net := paperNetwork(t, 3)
	sim := NewSimulator(net)
	users := []User{
		{Pos: geom.Pt(5, 5), Stretch: 2, Active: false},
		{Pos: geom.Pt(25, 25), Stretch: 0, Active: true},
	}
	flux, err := sim.Flux(users)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flux {
		if f != 0 {
			t.Fatalf("inactive/zero-stretch users produced flux %v at node %d", f, i)
		}
	}
}

func TestFluxScalesWithStretch(t *testing.T) {
	net := paperNetwork(t, 4)
	sim := NewSimulator(net)
	f1, err := sim.Flux([]User{{Pos: geom.Pt(12, 12), Stretch: 1, Active: true}})
	if err != nil {
		t.Fatal(err)
	}
	f3, err := sim.Flux([]User{{Pos: geom.Pt(12, 12), Stretch: 3, Active: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if math.Abs(f3[i]-3*f1[i]) > 1e-9 {
			t.Fatalf("stretch scaling broken at node %d", i)
		}
	}
}

func TestFluxOutsideFieldErrors(t *testing.T) {
	net := paperNetwork(t, 5)
	sim := NewSimulator(net)
	if _, err := sim.Flux([]User{{Pos: geom.Pt(-5, 5), Stretch: 1, Active: true}}); err == nil {
		t.Error("user outside field must error")
	}
}

func TestTreeCacheReuse(t *testing.T) {
	net := paperNetwork(t, 6)
	sim := NewSimulator(net)
	// Two users whose positions snap to the same sink must hit the cache.
	sink := net.Pos(100)
	if _, err := sim.Flux([]User{{Pos: sink, Stretch: 1, Active: true}}); err != nil {
		t.Fatal(err)
	}
	if len(sim.treeCache) != 1 {
		t.Fatalf("cache size = %d, want 1", len(sim.treeCache))
	}
	if _, err := sim.Flux([]User{{Pos: sink, Stretch: 2, Active: true}}); err != nil {
		t.Fatal(err)
	}
	if len(sim.treeCache) != 1 {
		t.Fatalf("cache size after reuse = %d, want 1", len(sim.treeCache))
	}
}

func TestSample(t *testing.T) {
	flux := []float64{10, 20, 30, 40}
	m, err := Sample(flux, []int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.Flux[0] != 40 || m.Flux[1] != 10 {
		t.Errorf("sampled flux = %v, want [40 10]", m.Flux)
	}
	if _, err := Sample(flux, []int{4}); err == nil {
		t.Error("out-of-range sample index must error")
	}
	if _, err := Sample(flux, []int{-1}); err == nil {
		t.Error("negative sample index must error")
	}
}

func TestAddNoise(t *testing.T) {
	m := Measurement{Nodes: []int{0, 1}, Flux: []float64{100, 200}}
	// Zero sigma is the identity.
	clean := m.AddNoise(0, rng.New(1))
	if clean.Flux[0] != 100 || clean.Flux[1] != 200 {
		t.Errorf("zero-sigma noise altered flux: %v", clean.Flux)
	}
	// Non-zero sigma perturbs but stays non-negative.
	src := rng.New(2)
	noisy := m.AddNoise(0.5, src)
	changed := false
	for i, f := range noisy.Flux {
		if f < 0 {
			t.Fatalf("noise produced negative flux %v", f)
		}
		if f != m.Flux[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("noise with sigma 0.5 changed nothing")
	}
	// Original untouched.
	if m.Flux[0] != 100 {
		t.Error("AddNoise mutated the input measurement")
	}
}

func TestPickSamplingNodes(t *testing.T) {
	net := paperNetwork(t, 7)
	src := rng.New(8)
	nodes, err := PickSamplingNodes(net, 90, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 90 {
		t.Fatalf("got %d nodes, want 90", len(nodes))
	}
	seen := map[int]bool{}
	for _, i := range nodes {
		if i < 0 || i >= net.Len() || seen[i] {
			t.Fatalf("invalid or duplicate sampling node %d", i)
		}
		seen[i] = true
	}
	if _, err := PickSamplingNodes(net, 0, src); err == nil {
		t.Error("zero sampling count must error")
	}
	if _, err := PickSamplingNodes(net, net.Len()+1, src); err == nil {
		t.Error("oversized sampling count must error")
	}
}

func TestReshape(t *testing.T) {
	src := rng.New(9)
	flux := []float64{1, 2, 3}
	out := Reshape(flux, 10, src)
	for i := range out {
		if out[i] < flux[i] || out[i] > flux[i]+10 {
			t.Fatalf("reshaped flux %v out of [%v, %v]", out[i], flux[i], flux[i]+10)
		}
	}
	if flux[0] != 1 {
		t.Error("Reshape mutated the input")
	}
}

func TestPeakNode(t *testing.T) {
	idx, peak := PeakNode([]float64{3, 9, 1})
	if idx != 1 || peak != 9 {
		t.Errorf("PeakNode = (%d, %v), want (1, 9)", idx, peak)
	}
	idx, _ = PeakNode(nil)
	if idx != -1 {
		t.Errorf("PeakNode(nil) idx = %d, want -1", idx)
	}
}

func TestTotalEnergy(t *testing.T) {
	if got := TotalEnergy([]float64{3, 4}); got != 25 {
		t.Errorf("TotalEnergy = %v, want 25", got)
	}
	if got := TotalEnergy(nil); got != 0 {
		t.Errorf("TotalEnergy(nil) = %v, want 0", got)
	}
}

func TestRandomUsers(t *testing.T) {
	src := rng.New(10)
	field := geom.Square(30)
	users := RandomUsers(field, 4, 1, 3, src)
	if len(users) != 4 {
		t.Fatalf("got %d users, want 4", len(users))
	}
	for _, u := range users {
		if !field.Contains(u.Pos) {
			t.Errorf("user at %v outside field", u.Pos)
		}
		if u.Stretch < 1 || u.Stretch >= 3 {
			t.Errorf("stretch %v outside [1, 3)", u.Stretch)
		}
		if !u.Active {
			t.Error("RandomUsers must produce active users")
		}
	}
}

func BenchmarkFluxThreeUsers(b *testing.B) {
	net := paperNetwork(b, 11)
	sim := NewSimulator(net)
	users := RandomUsers(net.Field(), 3, 1, 3, rng.New(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Flux(users); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimulatorConcurrentFlux exercises the shared tree cache from many
// goroutines at once — the pattern a shared Simulator across trial workers
// produces. Run under -race (CI does) this is the regression guard for the
// treeCache map; every goroutine must also observe exactly the sequential
// flux vectors.
func TestSimulatorConcurrentFlux(t *testing.T) {
	net := paperNetwork(t, 5)
	src := rng.New(99)
	userSets := make([][]User, 8)
	for i := range userSets {
		userSets[i] = RandomUsers(net.Field(), 1+i%3, 1, 3, src)
	}
	// Sequential reference on a fresh simulator.
	ref := NewSimulator(net)
	want := make([][]float64, len(userSets))
	for i, us := range userSets {
		var err error
		if want[i], err = ref.Flux(us); err != nil {
			t.Fatal(err)
		}
	}

	shared := NewSimulator(net)
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for rep := 0; rep < 5; rep++ {
				for i, us := range userSets {
					got, err := shared.Flux(us)
					if err != nil {
						errs <- err
						return
					}
					for j := range got {
						if got[j] != want[i][j] {
							errs <- fmt.Errorf("goroutine %d: flux[%d][%d] = %v, want %v", g, i, j, got[j], want[i][j])
							return
						}
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetRouteJitter: the traffic-shaping countermeasure must change the
// flux fingerprint (that mismatch with the attacker's calibrated model is
// the whole defense), conserve the total relayed flux (hop counts are
// untouched, so every report still travels the same distance), stay
// deterministic per seed, and switch off cleanly at jitter 0.
func TestSetRouteJitter(t *testing.T) {
	net := paperNetwork(t, 3)
	users := []User{{Pos: geom.Pt(12, 9), Stretch: 2, Active: true}}
	plainSim := NewSimulator(net)
	plain, err := plainSim.Flux(users)
	if err != nil {
		t.Fatal(err)
	}

	jit := NewSimulator(net)
	jit.SetRouteJitter(0.5, 7)
	shaped, err := jit.Flux(users)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range plain {
		if plain[i] != shaped[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("route jitter 0.5 left the flux fingerprint unchanged")
	}
	sum := func(f []float64) float64 {
		var s float64
		for _, v := range f {
			s += v
		}
		return s
	}
	if ps, ss := sum(plain), sum(shaped); math.Abs(ps-ss) > 1e-6*ps {
		t.Errorf("route jitter changed total relayed flux: %v -> %v", ps, ss)
	}

	// Same seed reproduces the shaped pattern bit for bit.
	jit2 := NewSimulator(net)
	jit2.SetRouteJitter(0.5, 7)
	shaped2, err := jit2.Flux(users)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shaped {
		if shaped[i] != shaped2[i] {
			t.Fatalf("same-seed jittered flux differs at node %d", i)
		}
	}

	// Resetting jitter to 0 on a live simulator clears the cache and
	// restores the plain fingerprint.
	jit.SetRouteJitter(0, 0)
	restored, err := jit.Flux(users)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if restored[i] != plain[i] {
			t.Fatalf("jitter 0 flux differs from plain at node %d", i)
		}
	}
}
