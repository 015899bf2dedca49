// Package fault is a deterministic fault-injection layer for degraded
// sensing: it perturbs the observation stream between the traffic
// simulator (or an obslog replay) and the SMC tracker, modeling the ways a
// real deployment fails to deliver the clean, synchronous flux reports the
// paper's attack assumes (§4.E already concedes reports arrive late or not
// at all):
//
//   - hard failure: a sensor dies permanently at some round and never
//     reports again (battery exhaustion, physical destruction);
//   - intermittent loss: a report is dropped this round with a per-round
//     Bernoulli probability (collisions, fading, congested sniffing);
//   - delayed delivery: a report arrives k rounds late, exercising the
//     asynchronous-update path — the consumer sees it with a staleness age
//     so it can inflate the report's uncertainty instead of fitting it as
//     fresh;
//   - stuck readings: a sensor keeps reporting its first observed value
//     forever (saturated counter, frozen firmware) — present but lying.
//
// Beyond benign degradation, the package also models malice: the Adversary
// (adversary.go) compromises a deterministic subset of sensors with
// Byzantine behaviors — readings inflated or deflated by a fixed factor and
// replays of the sensor's own earlier truth. Tampering composes with the
// Injector (tamper first, then degrade), and the defense side lives in
// internal/fit's robust fitting options.
//
// Every draw comes from a dedicated splitmix64-finalizer substream keyed by
// (seed, round, sensor, fault kind), never from a shared sequential stream:
// which faults fire is a pure function of the injector seed and the round
// index, so trials that own their injector stay byte-identical at any
// worker count (the determinism contract of internal/exp §6).
package fault

import (
	"fmt"
	"math"

	"fluxtrack/internal/obs"
)

// Config selects which faults an Injector applies and how hard. The zero
// value disables everything (Apply becomes a lossless pass-through with all
// reports present and fresh).
type Config struct {
	// DropoutFrac is the expected fraction of sensors that fail
	// permanently: each sensor is independently marked failed with this
	// probability at injector construction, and a failed sensor never
	// reports.
	DropoutFrac float64
	// LossProb is the per-round, per-sensor probability that a report is
	// lost outright (it never arrives, not even late).
	LossProb float64
	// DelayProb is the per-round, per-sensor probability that a surviving
	// report is delayed rather than delivered immediately.
	DelayProb float64
	// DelayRounds is how many rounds late a delayed report arrives; the
	// consumer sees it with Age == DelayRounds. Zero means 2 when
	// DelayProb > 0. A delay longer than the run never arrives.
	DelayRounds int
	// StuckFrac is the expected fraction of sensors whose reading freezes
	// at its first delivered value: each sensor is independently marked
	// stuck at construction.
	StuckFrac float64
}

func (c Config) withDefaults() Config {
	if c.DelayRounds <= 0 && c.DelayProb > 0 {
		c.DelayRounds = 2
	}
	return c
}

// Enabled reports whether the configuration perturbs anything at all.
func (c Config) Enabled() bool {
	return c.DropoutFrac > 0 || c.LossProb > 0 || c.DelayProb > 0 || c.StuckFrac > 0
}

// Validate rejects probabilities outside [0, 1] and non-finite values.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropoutFrac", c.DropoutFrac},
		{"LossProb", c.LossProb},
		{"DelayProb", c.DelayProb},
		{"StuckFrac", c.StuckFrac},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.DelayRounds < 0 {
		return fmt.Errorf("fault: DelayRounds = %d negative", c.DelayRounds)
	}
	return nil
}

// Observation is one round's degraded view of the sensor readings.
type Observation struct {
	// Readings holds the delivered values, aligned with the true readings;
	// entries where Present is false are zero and meaningless.
	Readings []float64
	// Present marks which sensors delivered a report this round.
	Present []bool
	// Age is each delivered report's staleness in rounds: 0 means the
	// report was measured this round, k > 0 means it was measured k rounds
	// ago and only arrived now (delayed delivery). Meaningless where
	// Present is false.
	Age []int
}

// Delivered returns how many reports are present.
func (o Observation) Delivered() int {
	n := 0
	for _, p := range o.Present {
		if p {
			n++
		}
	}
	return n
}

// pendingReport is a delayed report in flight, measured at round origin.
type pendingReport struct {
	origin int
	value  float64
}

// Injector applies one Config to a sequential stream of observation rounds
// for a fixed set of sensors. It is stateful (delayed reports in flight,
// frozen stuck values) and must be used by one goroutine for one trial;
// construct one injector per trial, seeded from the trial seed, and output
// is byte-identical regardless of how trials shard over workers.
type Injector struct {
	cfg  Config
	seed uint64
	n    int

	// dead[i] marks a sensor failed from round 0 on.
	dead     []bool
	stuck    []bool
	stuckVal []float64
	stuckSet []bool
	// pending[i] holds sensor i's delayed reports, in origin order.
	pending [][]pendingReport
	round   int

	// met holds the bound fault.* counter handles; the zero value is the
	// disabled instrument set.
	met injectorMetrics
}

// injectorMetrics caches the injector's counter handles. Every counter is a
// deterministic count — which faults fire is a pure function of the injector
// seed and the round index — so totals are identical at any worker count.
type injectorMetrics struct {
	m              *obs.Metrics
	shard          int
	rounds         *obs.Counter // fault.rounds
	deliveredFresh *obs.Counter // fault.delivered_fresh
	deliveredStale *obs.Counter // fault.delivered_stale
	dead           *obs.Counter // fault.dead: reports swallowed by hard failure
	lost           *obs.Counter // fault.lost: reports dropped outright
	delayed        *obs.Counter // fault.delayed: reports put in flight
	stuck          *obs.Counter // fault.stuck: readings frozen at a stale value
}

// SetMetrics binds (or, with nil, unbinds) the observability registry the
// injector reports its fault.* counters to. Metrics are write-only and never
// change which faults fire. Bind once, before the first Apply.
func (in *Injector) SetMetrics(m *obs.Metrics) {
	if m == nil {
		in.met = injectorMetrics{}
		return
	}
	in.met = injectorMetrics{
		m:              m,
		shard:          int(in.seed),
		rounds:         m.Counter("fault.rounds"),
		deliveredFresh: m.Counter("fault.delivered_fresh"),
		deliveredStale: m.Counter("fault.delivered_stale"),
		dead:           m.Counter("fault.dead"),
		lost:           m.Counter("fault.lost"),
		delayed:        m.Counter("fault.delayed"),
		stuck:          m.Counter("fault.stuck"),
	}
}

// mix64 is the splitmix64 finalizer, the same bijection the SMC tracker
// uses to derive per-user substreams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Salt constants separating the draw domains: a dropout draw and a loss
// draw for the same (round, sensor) must be independent.
const (
	saltFail = iota + 1
	_        // the retired failure-round draw; the later salts keep their values
	saltLoss
	saltDelay
	saltStuck
)

// draw returns a uniform value in [0, 1) keyed by (seed, round, sensor,
// salt). It is a pure function of its arguments — no sequential state — so
// the faults that fire at round r do not depend on how many draws earlier
// rounds consumed.
func (in *Injector) draw(round, sensor, salt int) float64 {
	z := in.seed
	z = mix64(z + uint64(salt)*0x9e3779b97f4a7c15)
	z = mix64(z + uint64(round+1)*0xbf58476d1ce4e5b9)
	z = mix64(z + uint64(sensor+1)*0x94d049bb133111eb)
	return float64(z>>11) / (1 << 53)
}

// NewInjector builds an Injector over numSensors sensors, drawing from the
// per-trial seed. Construction performs all of the per-sensor lifetime
// draws (hard failures, stuck marks), so they are fixed before the first
// round.
func NewInjector(cfg Config, numSensors int, seed uint64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numSensors <= 0 {
		return nil, fmt.Errorf("fault: numSensors must be positive, got %d", numSensors)
	}
	cfg = cfg.withDefaults()
	in := &Injector{
		cfg:      cfg,
		seed:     mix64(seed ^ mix64(0x9e3779b97f4a7c15)),
		n:        numSensors,
		dead:     make([]bool, numSensors),
		stuck:    make([]bool, numSensors),
		stuckVal: make([]float64, numSensors),
		stuckSet: make([]bool, numSensors),
		pending:  make([][]pendingReport, numSensors),
	}
	for i := 0; i < numSensors; i++ {
		if cfg.DropoutFrac > 0 {
			in.dead[i] = in.draw(0, i, saltFail) < cfg.DropoutFrac
		}
		if cfg.StuckFrac > 0 {
			in.stuck[i] = in.draw(0, i, saltStuck) < cfg.StuckFrac
		}
	}
	return in, nil
}

// NumSensors returns the number of sensors the injector was built for.
func (in *Injector) NumSensors() int { return in.n }

// Apply consumes the true readings for the next observation round and
// returns the degraded view. Rounds are implicit and sequential: the i-th
// Apply call is round i. The returned slices are freshly allocated and
// safe to retain.
func (in *Injector) Apply(readings []float64) (Observation, error) {
	if len(readings) != in.n {
		return Observation{}, fmt.Errorf("fault: %d readings, injector built for %d sensors", len(readings), in.n)
	}
	r := in.round
	in.round++
	out := Observation{
		Readings: make([]float64, in.n),
		Present:  make([]bool, in.n),
		Age:      make([]int, in.n),
	}
	// Per-kind tallies accumulate in locals and flush into the counters once
	// per Apply, so the hot loop pays no atomics when metrics are bound and
	// nothing at all when they are not.
	var nFresh, nStale, nDead, nLost, nDelayed, nStuck uint64
	for i, v := range readings {
		// Stuck sensors freeze at the first value they would have reported.
		if in.stuck[i] {
			if !in.stuckSet[i] {
				in.stuckVal[i], in.stuckSet[i] = v, true
			} else {
				nStuck++
			}
			v = in.stuckVal[i]
		}

		// A dead sensor's radio is gone from round 0: it queues nothing.
		if in.dead[i] {
			nDead++
			continue
		}

		fresh := true
		if in.cfg.LossProb > 0 && in.draw(r, i, saltLoss) < in.cfg.LossProb {
			fresh = false // lost outright, never delivered
			nLost++
		} else if in.cfg.DelayProb > 0 && in.draw(r, i, saltDelay) < in.cfg.DelayProb {
			fresh = false
			nDelayed++
			in.pending[i] = append(in.pending[i], pendingReport{origin: r, value: v})
		}

		if fresh {
			// A fresh report supersedes anything still in flight: the
			// consumer would discard older data for this sensor anyway.
			out.Readings[i], out.Present[i], out.Age[i] = v, true, 0
			in.pending[i] = in.pending[i][:0]
			nFresh++
			continue
		}
		// No fresh report: deliver the newest matured delayed report, if
		// any, and keep the not-yet-matured ones in flight. Maturity is
		// tested on the report's age, which cannot overflow the way
		// origin+DelayRounds would for a very large delay.
		q := in.pending[i][:0]
		bestOrigin := -1
		var bestVal float64
		for _, p := range in.pending[i] {
			if r-p.origin >= in.cfg.DelayRounds {
				if p.origin > bestOrigin {
					bestOrigin, bestVal = p.origin, p.value
				}
				continue
			}
			q = append(q, p)
		}
		in.pending[i] = q
		if bestOrigin >= 0 {
			out.Readings[i], out.Present[i], out.Age[i] = bestVal, true, r-bestOrigin
			nStale++
		}
	}
	if in.met.m != nil {
		w := in.met.shard
		in.met.rounds.Inc(w)
		in.met.deliveredFresh.Add(w, nFresh)
		in.met.deliveredStale.Add(w, nStale)
		in.met.dead.Add(w, nDead)
		in.met.lost.Add(w, nLost)
		in.met.delayed.Add(w, nDelayed)
		in.met.stuck.Add(w, nStuck)
	}
	return out, nil
}
