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
// splitmix64-finalizer hash of (seed, round, sensor, kind), never a shared
// sequential stream, so which sensors lie — and when — is a pure function
// of the adversary seed. Trials that own their adversary stay byte-identical
// at any worker count (the contract pinned by internal/exp's golden tests).

package fault

import (
	"fmt"
	"math"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
)

// Behavior is the per-sensor Byzantine role fixed at adversary construction.
type Behavior uint8

const (
	// Honest sensors report their true reading untouched.
	Honest Behavior = iota
	// Inflate multiplies the true reading by AdversaryConfig.InflateFactor,
	// fabricating phantom flux mass near the sensor.
	Inflate
	// Deflate multiplies the true reading by AdversaryConfig.DeflateFactor,
	// hiding real flux (cloaking the users the sensor overhears).
	Deflate
	// Replay reports the sensor's own true reading from
	// AdversaryConfig.ReplayLag rounds ago: plausible values, stale truth.
	Replay
	// Coalition marks a sensor inside the colluding region: all coalition
	// members apply the same CoalitionFactor bias, fabricating a coherent
	// phantom hotspot (factor > 1) or a coherent blind spot (factor < 1)
	// that single-sensor consistency checks cannot separate from a real user.
	Coalition
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
	case Coalition:
		return "coalition"
	}
	return fmt.Sprintf("Behavior(%d)", uint8(b))
}

// AdversaryConfig selects which Byzantine behaviors an Adversary applies and
// how hard. The zero value compromises nothing (Apply becomes a copying
// pass-through).
type AdversaryConfig struct {
	// InflateFrac, DeflateFrac, and ReplayFrac are the expected fractions of
	// sensors compromised with each behavior. One uniform draw per sensor at
	// construction is banded across the three fractions, so the total
	// compromised fraction is exactly their sum (which must stay <= 1).
	InflateFrac float64
	DeflateFrac float64
	ReplayFrac  float64
	// InflateFactor is the multiplier inflating sensors apply (zero means 4).
	InflateFactor float64
	// DeflateFactor is the multiplier deflating sensors apply (zero means
	// 0.25). Values in (0, 1) shrink the reading; the default quarters it.
	DeflateFactor float64
	// ReplayLag is how many rounds old a replaying sensor's reading is (zero
	// means 3 when ReplayFrac > 0). Before ReplayLag rounds have elapsed the
	// sensor replays the first round it ever saw.
	ReplayLag int
	// LieProb is the per-round probability that a compromised sensor
	// actually tampers this round (zero means 1 — always lie). Intermittent
	// lying evades defenses that flag persistently inconsistent sensors.
	LieProb float64
	// CoalitionRegion and CoalitionFactor arm a colluding coalition: every
	// sensor whose position falls inside the region applies the factor to
	// its readings, regardless of the per-sensor fraction draws. A zero-area
	// region or a factor of 0 or 1 disables the coalition.
	CoalitionRegion geom.Rect
	CoalitionFactor float64
	// Seed salts the adversary's substream on top of the per-trial seed, so
	// an adversary and a fault injector in one trial draw independently even
	// from related seeds.
	Seed uint64
}

func (c AdversaryConfig) withDefaults() AdversaryConfig {
	if c.InflateFactor <= 0 {
		c.InflateFactor = 4
	}
	if c.DeflateFactor <= 0 {
		c.DeflateFactor = 0.25
	}
	if c.ReplayLag <= 0 && c.ReplayFrac > 0 {
		c.ReplayLag = 3
	}
	if c.LieProb <= 0 {
		c.LieProb = 1
	}
	return c
}

// coalitionArmed reports whether the coalition parameters name a non-trivial
// colluding region.
func (c AdversaryConfig) coalitionArmed() bool {
	return c.CoalitionFactor > 0 && c.CoalitionFactor != 1 &&
		c.CoalitionRegion.Width() > 0 && c.CoalitionRegion.Height() > 0
}

// Enabled reports whether the configuration compromises anything at all.
func (c AdversaryConfig) Enabled() bool {
	return c.InflateFrac > 0 || c.DeflateFrac > 0 || c.ReplayFrac > 0 || c.coalitionArmed()
}

// Validate rejects fractions outside [0, 1] (or summing past 1), non-finite
// factors, and negative lags.
func (c AdversaryConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"InflateFrac", c.InflateFrac},
		{"DeflateFrac", c.DeflateFrac},
		{"ReplayFrac", c.ReplayFrac},
		{"LieProb", c.LieProb},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if sum := c.InflateFrac + c.DeflateFrac + c.ReplayFrac; sum > 1 {
		return fmt.Errorf("fault: behavior fractions sum to %v > 1", sum)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"InflateFactor", c.InflateFactor},
		{"DeflateFactor", c.DeflateFactor},
		{"CoalitionFactor", c.CoalitionFactor},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v < 0 {
			return fmt.Errorf("fault: %s = %v must be finite and non-negative", p.name, p.v)
		}
	}
	if c.ReplayLag < 0 {
		return fmt.Errorf("fault: ReplayLag = %d negative", c.ReplayLag)
	}
	return nil
}

// Salt constants for the adversary's draw domains, disjoint from the
// injector's salts (saltFail..saltStuck occupy 1..5) so an adversary and an
// injector built from the same seed never share a draw.
const (
	saltAdvKind = 16 + iota // construction-time behavior assignment
	saltAdvLie              // per-round lie gate (LieProb < 1)
)

// Adversary applies one AdversaryConfig to a sequential stream of true
// readings for a fixed set of sensors, producing the tampered readings the
// sniffer actually reports. It is stateful (the replay history ring) and
// must be used by one goroutine for one trial; construct one adversary per
// trial, seeded from the trial seed, and output is byte-identical regardless
// of how trials shard over workers.
type Adversary struct {
	cfg  AdversaryConfig
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
	colluded *obs.Counter // fault.adv.coalition
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
		colluded: m.Counter("fault.adv.coalition"),
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

// NewAdversary builds an Adversary over the sensors at the given positions
// (the coalition needs geometry; the other behaviors only need the count).
// The per-trial seed combines with cfg.Seed; construction performs all of
// the per-sensor behavior assignments, so the compromised set is fixed
// before the first round.
func NewAdversary(cfg AdversaryConfig, positions []geom.Point, seed uint64) (*Adversary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("fault: adversary needs at least one sensor position")
	}
	cfg = cfg.withDefaults()
	a := &Adversary{
		cfg:      cfg,
		seed:     mix64(seed ^ mix64(cfg.Seed+0x9e3779b97f4a7c15)),
		n:        len(positions),
		behavior: make([]Behavior, len(positions)),
	}
	coalition := cfg.coalitionArmed()
	replays := false
	for i, pos := range positions {
		if coalition && cfg.CoalitionRegion.Contains(pos) {
			a.behavior[i] = Coalition
			continue
		}
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
		a.ring = make([][]float64, cfg.ReplayLag+1)
		for i := range a.ring {
			a.ring[i] = make([]float64, a.n)
		}
		a.first = make([]float64, a.n)
	}
	return a, nil
}

// NumSensors returns the number of sensors the adversary was built for.
func (a *Adversary) NumSensors() int { return a.n }

// Rounds returns how many observation rounds the adversary has consumed.
func (a *Adversary) Rounds() int { return a.round }

// Behaviors returns a copy of the per-sensor behavior assignment — the
// ground truth a defense evaluation scores its flagged sensors against.
func (a *Adversary) Behaviors() []Behavior {
	return append([]Behavior(nil), a.behavior...)
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
	var nTampered, nInflated, nDeflated, nReplayed, nColluded uint64
	for i, v := range readings {
		b := a.behavior[i]
		if b == Honest {
			continue
		}
		if a.cfg.LieProb < 1 && a.draw(r, i, saltAdvLie) >= a.cfg.LieProb {
			continue // honest round for an intermittent liar
		}
		switch b {
		case Inflate:
			out[i] = v * a.cfg.InflateFactor
			nInflated++
		case Deflate:
			out[i] = v * a.cfg.DeflateFactor
			nDeflated++
		case Replay:
			if r < a.cfg.ReplayLag {
				out[i] = a.first[i]
				if r == 0 {
					out[i] = v // nothing to replay yet: the truth, this once
				}
			} else {
				out[i] = a.ring[(r-a.cfg.ReplayLag)%len(a.ring)][i]
			}
			nReplayed++
		case Coalition:
			out[i] = v * a.cfg.CoalitionFactor
			nColluded++
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
		a.met.colluded.Add(w, nColluded)
	}
	return out, nil
}
