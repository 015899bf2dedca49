// Byzantine adversary layer: sensors that lie, not just fail.
//
// The Injector in fault.go models benign degradation — reports that die,
// drop, or arrive late. The Adversary models malice: compromised sensors
// that stay present and fresh but report wrong values, chosen to poison the
// NLS fit and the SMC tracker downstream. The two compose: tamper first
// (the compromised sensor's radio still works), then degrade, so a liar's
// report can also be lost or delayed like anyone else's.
//
// Determinism follows the injector's contract exactly: every draw is a pure
// splitmix64-finalizer hash of (seed, sensor, kind), never a shared
// sequential stream, so which sensors lie is a pure function of the
// adversary seed. Trials that own their adversary stay byte-identical
// at any worker count (the contract pinned by internal/exp's golden tests).

package fault

import (
	"fmt"
	"math"

	"fluxtrack/internal/obs"
)

// Behavior is the per-sensor Byzantine role fixed at adversary construction.
type Behavior uint8

const (
	// Honest sensors report their true reading untouched.
	Honest Behavior = iota
	// Inflate multiplies the true reading by InflateFactor, fabricating
	// phantom flux mass near the sensor.
	Inflate
	// Deflate multiplies the true reading by DeflateFactor, hiding real flux
	// (cloaking the users the sensor overhears).
	Deflate
	// Replay reports the sensor's own true reading from ReplayLag rounds
	// ago: plausible values, stale truth.
	Replay
)

// String returns the behavior's short name.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Inflate:
		return "inflate"
	case Deflate:
		return "deflate"
	case Replay:
		return "replay"
	}
	return fmt.Sprintf("Behavior(%d)", uint8(b))
}

// The compromised sensors' fixed attack strengths.
const (
	// InflateFactor is the multiplier inflating sensors apply.
	InflateFactor = 4
	// DeflateFactor is the multiplier deflating sensors apply: it quarters
	// the reading.
	DeflateFactor = 0.25
	// ReplayLag is how many rounds old a replaying sensor's reading is.
	// Before ReplayLag rounds have elapsed the sensor replays the first
	// round it ever saw.
	ReplayLag = 3
)

// AdversaryConfig selects how many sensors an Adversary compromises with
// each behavior. The zero value compromises nothing (Apply becomes a copying
// pass-through).
type AdversaryConfig struct {
	// InflateFrac, DeflateFrac, and ReplayFrac are the expected fractions of
	// sensors compromised with each behavior. One uniform draw per sensor at
	// construction is banded across the three fractions, so the total
	// compromised fraction is exactly their sum (which must stay <= 1).
	InflateFrac float64
	DeflateFrac float64
	ReplayFrac  float64
}

// Validate rejects fractions outside [0, 1] or summing past 1.
func (c AdversaryConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"InflateFrac", c.InflateFrac},
		{"DeflateFrac", c.DeflateFrac},
		{"ReplayFrac", c.ReplayFrac},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if sum := c.InflateFrac + c.DeflateFrac + c.ReplayFrac; sum > 1 {
		return fmt.Errorf("fault: behavior fractions sum to %v > 1", sum)
	}
	return nil
}

// saltAdvKind is the draw domain of the construction-time behavior
// assignment, disjoint from the injector's salts (saltFail..saltStuck
// occupy 1..5) so an adversary and an injector built from the same seed
// never share a draw.
const saltAdvKind = 16

// Adversary applies one AdversaryConfig to a sequential stream of true
// readings for a fixed set of sensors, producing the tampered readings the
// sniffer actually reports. It is stateful (the replay history ring) and
// must be used by one goroutine for one trial; construct one adversary per
// trial, seeded from the trial seed, and output is byte-identical regardless
// of how trials shard over workers.
type Adversary struct {
	seed uint64
	n    int

	behavior []Behavior
	// ring holds the last ReplayLag+1 rounds of true readings (only
	// allocated when some sensor replays); first is the round-0 snapshot a
	// young replay falls back to.
	ring  [][]float64
	first []float64
	round int

	met adversaryMetrics
}

// adversaryMetrics caches the adversary's counter handles. Every counter is
// deterministic — which sensors lie at round r is a pure function of the
// adversary seed — so totals are identical at any worker count.
type adversaryMetrics struct {
	m        *obs.Metrics
	shard    int
	rounds   *obs.Counter // fault.adv.rounds
	tampered *obs.Counter // fault.adv.tampered: readings altered this run
	inflated *obs.Counter // fault.adv.inflated
	deflated *obs.Counter // fault.adv.deflated
	replayed *obs.Counter // fault.adv.replayed
}

// SetMetrics binds (or, with nil, unbinds) the observability registry the
// adversary reports its fault.adv.* counters to. Metrics are write-only and
// never change which sensors lie. Bind once, before the first Apply.
func (a *Adversary) SetMetrics(m *obs.Metrics) {
	if m == nil {
		a.met = adversaryMetrics{}
		return
	}
	a.met = adversaryMetrics{
		m:        m,
		shard:    int(a.seed),
		rounds:   m.Counter("fault.adv.rounds"),
		tampered: m.Counter("fault.adv.tampered"),
		inflated: m.Counter("fault.adv.inflated"),
		deflated: m.Counter("fault.adv.deflated"),
		replayed: m.Counter("fault.adv.replayed"),
	}
}

// draw returns a uniform value in [0, 1) keyed by (seed, round, sensor,
// salt) — the injector's hash construction verbatim, on the adversary's own
// seed and salt domain.
func (a *Adversary) draw(round, sensor, salt int) float64 {
	z := a.seed
	z = mix64(z + uint64(salt)*0x9e3779b97f4a7c15)
	z = mix64(z + uint64(round+1)*0xbf58476d1ce4e5b9)
	z = mix64(z + uint64(sensor+1)*0x94d049bb133111eb)
	return float64(z>>11) / (1 << 53)
}

// NewAdversary builds an Adversary over n sensors from the per-trial seed.
// Construction performs all of the per-sensor behavior assignments, so the
// compromised set is fixed before the first round.
func NewAdversary(cfg AdversaryConfig, n int, seed uint64) (*Adversary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("fault: adversary needs at least one sensor")
	}
	a := &Adversary{
		// The salt keeps the adversary's substream apart from a fault
		// injector seeded from the same trial seed.
		seed:     mix64(seed ^ mix64(0x9e3779b97f4a7c15)),
		n:        n,
		behavior: make([]Behavior, n),
	}
	replays := false
	for i := range a.behavior {
		// One banded draw splits the kinds, so the total compromised
		// fraction is exactly InflateFrac+DeflateFrac+ReplayFrac.
		u := a.draw(0, i, saltAdvKind)
		switch {
		case u < cfg.InflateFrac:
			a.behavior[i] = Inflate
		case u < cfg.InflateFrac+cfg.DeflateFrac:
			a.behavior[i] = Deflate
		case u < cfg.InflateFrac+cfg.DeflateFrac+cfg.ReplayFrac:
			a.behavior[i] = Replay
			replays = true
		}
	}
	if replays {
		a.ring = make([][]float64, ReplayLag+1)
		for i := range a.ring {
			a.ring[i] = make([]float64, a.n)
		}
		a.first = make([]float64, a.n)
	}
	return a, nil
}

// NumCompromised returns how many sensors are compromised.
func (a *Adversary) NumCompromised() int {
	k := 0
	for _, b := range a.behavior {
		if b != Honest {
			k++
		}
	}
	return k
}

// Apply consumes the true readings for the next observation round and
// returns the tampered view. Rounds are implicit and sequential: the i-th
// Apply call is round i. The returned slice is freshly allocated and safe
// to retain; honest sensors' entries are copied through untouched (including
// non-finite values — the adversary transform never sanitizes its input, the
// downstream fit path owns rejecting garbage).
func (a *Adversary) Apply(readings []float64) ([]float64, error) {
	if len(readings) != a.n {
		return nil, fmt.Errorf("fault: %d readings, adversary built for %d sensors", len(readings), a.n)
	}
	r := a.round
	a.round++
	out := make([]float64, a.n)
	copy(out, readings)
	var nTampered, nInflated, nDeflated, nReplayed uint64
	for i, v := range readings {
		switch a.behavior[i] {
		case Honest:
			continue
		case Inflate:
			out[i] = v * InflateFactor
			nInflated++
		case Deflate:
			out[i] = v * DeflateFactor
			nDeflated++
		case Replay:
			if r < ReplayLag {
				out[i] = a.first[i]
				if r == 0 {
					out[i] = v // nothing to replay yet: the truth, this once
				}
			} else {
				out[i] = a.ring[(r-ReplayLag)%len(a.ring)][i]
			}
			nReplayed++
		}
		nTampered++
	}
	if a.ring != nil {
		copy(a.ring[r%len(a.ring)], readings)
		if r == 0 {
			copy(a.first, readings)
		}
	}
	if a.met.m != nil {
		w := a.met.shard
		a.met.rounds.Inc(w)
		a.met.tampered.Add(w, nTampered)
		a.met.inflated.Add(w, nInflated)
		a.met.deflated.Add(w, nDeflated)
		a.met.replayed.Add(w, nReplayed)
	}
	return out, nil
}
