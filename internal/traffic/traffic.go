// Package traffic simulates the network flux observed by the adversary.
//
// Per §3.A of the paper: K mobile users move inside the field; each data
// collection builds a tree rooted at the user's sink; traffic flows of
// different users add up at intermediate nodes; the adversary measures the
// cumulated per-node flux F = sum_i F_i within each observation window, with
// no way to separate the per-user shares.
package traffic

import (
	"fmt"
	"sync"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/routing"
)

// User is a mobile user (mobile sink) collecting data from the network.
type User struct {
	Pos     geom.Point // current position in the field
	Stretch float64    // traffic stretch s: units of data collected per node
	Active  bool       // whether the user collects data this window
}

// Simulator computes ground-truth per-node flux for sets of users over a
// fixed network. It caches collection trees by sink node, since users that
// attach to the same nearest node induce identical tree shapes.
//
// A Simulator is safe for concurrent use: the tree cache is guarded by a
// mutex, and tree construction is deterministic, so whichever goroutine
// populates a sink's entry produces the same tree. The per-worker trial
// pattern in internal/exp gives each trial its own Simulator anyway, but
// sharing one across goroutines (e.g. to amortize tree building across
// trials on the same network) must not be a data race.
type Simulator struct {
	net *network.Network

	mu        sync.Mutex
	treeCache map[int]*routing.Tree
	met       simMetrics

	// routeJitter and routeSeed arm the route-randomization countermeasure:
	// when routeJitter > 0 every tree is built with routing.BuildRandomized
	// instead of routing.Build. See SetRouteJitter.
	routeJitter float64
	routeSeed   uint64
}

// simMetrics holds the simulator's bound counter handles; the zero value is
// the disabled instrument set. All four counters are deterministic work
// counts: how many flux rounds were computed, how many user contributions
// they summed, and how the tree cache split between builds and hits (builds
// equal the number of distinct sinks ever requested, regardless of which
// goroutine gets there first).
type simMetrics struct {
	m          *obs.Metrics
	fluxRounds *obs.Counter // traffic.flux.rounds
	fluxUsers  *obs.Counter // traffic.flux.users (active contributions summed)
	treeBuilds *obs.Counter // traffic.tree.builds
	treeHits   *obs.Counter // traffic.tree.hits
}

// NewSimulator returns a Simulator over the given network.
func NewSimulator(net *network.Network) *Simulator {
	return &Simulator{net: net, treeCache: make(map[int]*routing.Tree)}
}

// SetMetrics binds (or, with nil, unbinds) the observability registry the
// simulator reports its traffic.* work counters to. Metrics are write-only
// and never change the simulated flux. Not safe to call concurrently with
// Flux; bind once right after construction.
func (s *Simulator) SetMetrics(m *obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil {
		s.met = simMetrics{}
		return
	}
	s.met = simMetrics{
		m:          m,
		fluxRounds: m.Counter("traffic.flux.rounds"),
		fluxUsers:  m.Counter("traffic.flux.users"),
		treeBuilds: m.Counter("traffic.tree.builds"),
		treeHits:   m.Counter("traffic.tree.hits"),
	}
}

// SetRouteJitter arms (or, with jitter <= 0, disarms) the network's
// route-randomization countermeasure: subsequent trees are built with
// routing.BuildRandomized(sink, jitter, seed), so each node deviates from
// its nearest closer parent with probability jitter. The tree cache is
// cleared, since cached shapes were built under the previous policy.
// Randomized trees are still deterministic per (sink, jitter, seed), so the
// cache — and every table rendered above it — stays worker-count invariant.
// Not safe to call concurrently with Flux; configure right after
// construction, like SetMetrics.
func (s *Simulator) SetRouteJitter(jitter float64, seed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jitter < 0 {
		jitter = 0
	}
	s.routeJitter = jitter
	s.routeSeed = seed
	s.treeCache = make(map[int]*routing.Tree)
}

// tree returns the (cached) collection tree rooted at the given sink node.
// The lock is held across the build so concurrent callers asking for the
// same sink share one construction instead of racing on the map.
func (s *Simulator) tree(sink int) (*routing.Tree, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.treeCache[sink]; ok {
		s.met.treeHits.Inc(sink)
		return t, nil
	}
	t, err := routing.BuildRandomized(s.net, sink, s.routeJitter, s.routeSeed)
	if err != nil {
		return nil, err
	}
	s.treeCache[sink] = t
	s.met.treeBuilds.Inc(sink)
	return t, nil
}

// Flux returns the cumulated per-node flux induced by the users. Inactive
// users and users with non-positive stretch contribute nothing, mirroring a
// collection window in which they issue no request.
func (s *Simulator) Flux(users []User) ([]float64, error) {
	s.met.fluxRounds.Inc(0)
	active := 0
	total := make([]float64, s.net.Len())
	for i, u := range users {
		if !u.Active || u.Stretch <= 0 {
			continue
		}
		active++
		if !s.net.Field().Contains(u.Pos) {
			return nil, fmt.Errorf("traffic: user %d at %v is outside the field", i, u.Pos)
		}
		t, err := s.tree(s.net.Nearest(u.Pos))
		if err != nil {
			return nil, err
		}
		for j, size := range t.SubtreeSize {
			total[j] += u.Stretch * float64(size)
		}
	}
	s.met.fluxUsers.Add(0, uint64(active))
	return total, nil
}

// Measurement is what the adversary actually sniffs: flux readings at a
// sparse subset of node indices.
type Measurement struct {
	Nodes []int     // indices of the sniffed nodes
	Flux  []float64 // flux reading at each sniffed node, aligned with Nodes
}

// Sample extracts the readings at the given node indices from a full flux
// vector.
func Sample(flux []float64, nodes []int) (Measurement, error) {
	m := Measurement{Nodes: append([]int(nil), nodes...), Flux: make([]float64, len(nodes))}
	for k, i := range nodes {
		if i < 0 || i >= len(flux) {
			return Measurement{}, fmt.Errorf("traffic: sample index %d out of range [0, %d)", i, len(flux))
		}
		m.Flux[k] = flux[i]
	}
	return m, nil
}

// AddNoise perturbs each reading with multiplicative noise
// (1 + sigma*N(0,1)), clamped at zero, modeling imperfect sniffing windows.
// A sigma of zero leaves the measurement unchanged.
func (m Measurement) AddNoise(sigma float64, src *rng.Source) Measurement {
	out := Measurement{Nodes: append([]int(nil), m.Nodes...), Flux: make([]float64, len(m.Flux))}
	for i, f := range m.Flux {
		v := f
		if sigma > 0 {
			v *= 1 + sigma*src.Norm()
			if v < 0 {
				v = 0
			}
		}
		out.Flux[i] = v
	}
	return out
}

// PickSamplingNodes selects k distinct sniffing positions uniformly at
// random among all nodes, as in the paper's sparse-sampling evaluation
// ("we randomly select the percentage of sensor nodes from the network").
func PickSamplingNodes(net *network.Network, k int, src *rng.Source) ([]int, error) {
	if k <= 0 || k > net.Len() {
		return nil, fmt.Errorf("traffic: sampling count %d out of range (0, %d]", k, net.Len())
	}
	return src.SampleK(net.Len(), k), nil
}

// Reshape is a traffic-reshaping countermeasure (§6 future work): every node
// injects dummy flux drawn uniformly in [0, amplitude], flattening the flux
// fingerprint the adversary relies on. It returns a new flux vector.
func Reshape(flux []float64, amplitude float64, src *rng.Source) []float64 {
	out := make([]float64, len(flux))
	for i, f := range flux {
		out[i] = f + src.Uniform(0, amplitude)
	}
	return out
}

// TotalEnergy returns the sum of squared flux values. The paper reports the
// fraction of "flux energy" preserved by node subsets; briefing progress is
// measured the same way.
func TotalEnergy(flux []float64) float64 {
	var s float64
	for _, f := range flux {
		s += f * f
	}
	return s
}

// RandomUsers places k active users uniformly in the field with stretches
// drawn uniformly from [stretchLo, stretchHi], the workload of §5.A
// ("traffic stretch of each user is randomly selected from 1 to 3").
func RandomUsers(field geom.Rect, k int, stretchLo, stretchHi float64, src *rng.Source) []User {
	users := make([]User, k)
	for i := range users {
		users[i] = User{
			Pos:     src.InRect(field),
			Stretch: src.Uniform(stretchLo, stretchHi),
			Active:  true,
		}
	}
	return users
}
