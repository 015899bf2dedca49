// Package rng provides a small, deterministic pseudo-random number generator
// and the geometric samplers the fingerprinting pipeline needs (uniform
// points in rectangles and discs, permutations, subset sampling).
//
// Experiments in this repository must be reproducible run-to-run, so every
// stochastic component takes an explicit *rng.Source seeded by the caller
// instead of reaching for a global generator.
package rng

import (
	"math"
	"math/bits"

	"fluxtrack/internal/geom"
)

// Source is a deterministic pseudo-random source based on splitmix64. It is
// compact, fast, and passes standard statistical batteries, which is more
// than sufficient for Monte Carlo position sampling.
//
// Source is not safe for concurrent use; give each goroutine its own Source
// (see Split).
type Source struct {
	state uint64
	// spare caches the second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// New returns a Source seeded with seed. Two Sources with equal seeds produce
// identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0, matching
// the contract of math/rand.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Norm returns a standard normal variate via the Box-Muller transform.
func (s *Source) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.hasSpare = true
	return u * f
}

// Pareto returns a bounded Pareto variate on [lo, hi] with shape alpha > 0.
// Heavy-tailed dwell times in the synthetic campus traces use this.
func (s *Source) Pareto(lo, hi, alpha float64) float64 {
	if lo >= hi {
		return lo
	}
	u := s.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// InRect returns a uniform point inside r.
func (s *Source) InRect(r geom.Rect) geom.Point {
	return geom.Pt(s.Uniform(r.Min.X, r.Max.X), s.Uniform(r.Min.Y, r.Max.Y))
}

// InDisc returns a uniform point in the disc of the given radius centered at
// c. This is the prediction-phase sampler of Algorithm 4.1: the next position
// is uniform in a disc of radius v_max * dt around the previous sample.
func (s *Source) InDisc(c geom.Point, radius float64) geom.Point {
	// Inverse-CDF sampling: radius must be sqrt-distributed for area
	// uniformity.
	r := radius * math.Sqrt(s.Float64())
	theta := s.Uniform(0, 2*math.Pi)
	return geom.Pt(c.X+r*math.Cos(theta), c.Y+r*math.Sin(theta))
}

// InDiscClamped returns a uniform point in the disc around c intersected with
// the field rectangle, by rejection with a clamping fallback. The tracker
// uses it so predicted positions never leave the field.
func (s *Source) InDiscClamped(c geom.Point, radius float64, field geom.Rect) geom.Point {
	for i := 0; i < 16; i++ {
		p := s.InDisc(c, radius)
		if field.Contains(p) {
			return p
		}
	}
	return field.Clamp(s.InDisc(c, radius))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.IntN(i+1))
	}
}

// SampleK returns k distinct indices drawn uniformly from [0, n), in
// selection order. It panics when k > n or k < 0. The fingerprinting attack
// uses it to pick the sparse set of sniffed nodes.
func (s *Source) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK requires 0 <= k <= n")
	}
	p := s.Perm(n)
	return p[:k]
}

// Weighted returns an index in [0, len(weights)) sampled proportionally to
// the non-negative weights. If all weights are zero or the slice is empty it
// returns -1. The importance-sampling resampler uses it.
func (s *Source) Weighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := s.Uniform(0, total)
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// State is the complete serializable state of a Source: the splitmix64
// stream cursor plus the Box-Muller spare cache. A Source restored from a
// State continues its stream exactly where the exporting Source stood —
// draw for draw, bit for bit — which is what makes tracker checkpoints
// (internal/serve) resume byte-identically.
type State struct {
	Cursor   uint64
	Spare    float64
	HasSpare bool
}

// State exports the source's current stream position.
func (s *Source) State() State {
	return State{Cursor: s.state, Spare: s.spare, HasSpare: s.hasSpare}
}

// Restore rewinds (or fast-forwards) the source to a previously exported
// stream position. The next draw after Restore(st) equals the next draw the
// exporting source would have made after State() returned st.
func (s *Source) Restore(st State) {
	s.state = st.Cursor
	s.spare = st.Spare
	s.hasSpare = st.HasSpare
}
