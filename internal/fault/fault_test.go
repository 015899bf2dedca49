package fault

import (
	"math"
	"reflect"
	"testing"
)

// applyAll runs n rounds of constant readings through a fresh injector and
// returns the per-round observations.
func applyAll(t *testing.T, cfg Config, sensors, rounds int, seed uint64) []Observation {
	t.Helper()
	in, err := NewInjector(cfg, sensors, seed)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]float64, sensors)
	out := make([]Observation, rounds)
	for r := 0; r < rounds; r++ {
		for i := range readings {
			readings[i] = float64(100*r + i) // distinct per (round, sensor)
		}
		obs, err := in.Apply(readings)
		if err != nil {
			t.Fatal(err)
		}
		out[r] = obs
	}
	return out
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{DropoutFrac: -0.1},
		{DropoutFrac: 1.5},
		{LossProb: math.NaN()},
		{DelayProb: 2},
		{StuckFrac: -1},
		{DelayRounds: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
	}
	if err := (Config{DropoutFrac: 0.3, LossProb: 1, DelayProb: 0.5, StuckFrac: 0}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Config{}, 0, 1); err == nil {
		t.Error("zero sensors accepted")
	}
	if _, err := NewInjector(Config{LossProb: 7}, 10, 1); err == nil {
		t.Error("invalid config accepted")
	}
	in, err := NewInjector(Config{}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Apply(make([]float64, 9)); err == nil {
		t.Error("mismatched reading length accepted")
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, cfg := range []Config{
		{DropoutFrac: 0.1}, {LossProb: 0.1}, {DelayProb: 0.1}, {StuckFrac: 0.1},
	} {
		if !cfg.Enabled() {
			t.Errorf("%+v reports disabled", cfg)
		}
	}
}

// TestZeroConfigPassThrough: a disabled injector must deliver every reading
// fresh and untouched.
func TestZeroConfigPassThrough(t *testing.T) {
	obs := applyAll(t, Config{}, 20, 5, 42)
	for r, o := range obs {
		for i := range o.Present {
			if !o.Present[i] || o.Age[i] != 0 {
				t.Fatalf("round %d sensor %d: present=%v age=%d, want fresh", r, i, o.Present[i], o.Age[i])
			}
			if want := float64(100*r + i); o.Readings[i] != want {
				t.Fatalf("round %d sensor %d: reading %v, want %v", r, i, o.Readings[i], want)
			}
		}
	}
}

// TestDeterminism: equal (config, seed) gives byte-identical observation
// streams; a different seed gives a different one.
func TestDeterminism(t *testing.T) {
	cfg := Config{DropoutFrac: 0.2, LossProb: 0.3, DelayProb: 0.3, DelayRounds: 2, StuckFrac: 0.1}
	a := applyAll(t, cfg, 50, 12, 7)
	b := applyAll(t, cfg, 50, 12, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := applyAll(t, cfg, 50, 12, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestDropoutPermanent: a failed sensor never reports, so DropoutFrac=1
// silences every sensor from round zero and a partial dropout leaves the
// same sensors absent in every round.
func TestDropoutPermanent(t *testing.T) {
	obs := applyAll(t, Config{DropoutFrac: 1}, 30, 4, 3)
	for r, o := range obs {
		if n := o.Delivered(); n != 0 {
			t.Fatalf("round %d: %d reports from a fully failed network", r, n)
		}
	}

	// Partial dropout: once absent, absent forever.
	cfg := Config{DropoutFrac: 0.5}
	seq := applyAll(t, cfg, 80, 10, 11)
	for i := 0; i < 80; i++ {
		dead := false
		for r := range seq {
			if dead && seq[r].Present[i] {
				t.Fatalf("sensor %d reported at round %d after dying", i, r)
			}
			if !seq[r].Present[i] {
				dead = true
			}
		}
	}
	// And roughly half the sensors should survive the whole run.
	alive := 0
	last := seq[len(seq)-1]
	for i := range last.Present {
		if last.Present[i] {
			alive++
		}
	}
	if alive < 20 || alive > 60 {
		t.Errorf("50%% dropout left %d/80 sensors alive", alive)
	}
}

// TestLossBernoulli: LossProb=1 silences everything; LossProb=0.5 loses
// roughly half the reports each round.
func TestLossBernoulli(t *testing.T) {
	for _, o := range applyAll(t, Config{LossProb: 1}, 40, 3, 5) {
		if o.Delivered() != 0 {
			t.Fatal("LossProb=1 delivered a report")
		}
	}
	total, delivered := 0, 0
	for _, o := range applyAll(t, Config{LossProb: 0.5}, 100, 10, 5) {
		total += len(o.Present)
		delivered += o.Delivered()
	}
	frac := float64(delivered) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("LossProb=0.5 delivered fraction %.3f, want ~0.5", frac)
	}
}

// TestDelayedDelivery: with DelayProb=1 and DelayRounds=2, the first two
// rounds are silent and every later round delivers the reading measured two
// rounds earlier with Age=2.
func TestDelayedDelivery(t *testing.T) {
	obs := applyAll(t, Config{DelayProb: 1, DelayRounds: 2}, 10, 8, 9)
	for r, o := range obs {
		for i := range o.Present {
			if r < 2 {
				if o.Present[i] {
					t.Fatalf("round %d sensor %d: delayed report arrived early", r, i)
				}
				continue
			}
			if !o.Present[i] {
				t.Fatalf("round %d sensor %d: matured delayed report missing", r, i)
			}
			if o.Age[i] != 2 {
				t.Fatalf("round %d sensor %d: age %d, want 2", r, i, o.Age[i])
			}
			if want := float64(100*(r-2) + i); o.Readings[i] != want {
				t.Fatalf("round %d sensor %d: reading %v, want origin-round value %v", r, i, o.Readings[i], want)
			}
		}
	}
}

// TestDelayBeyondRunNeverArrives: a delay of math.MaxInt rounds outlasts
// any run, so no report is ever delivered. Scheduling the arrival as
// origin+DelayRounds wrapped negative here and delivered every report in
// its own round at age 0, as if it were fresh.
func TestDelayBeyondRunNeverArrives(t *testing.T) {
	for r, o := range applyAll(t, Config{DelayProb: 1, DelayRounds: math.MaxInt}, 10, 8, 9) {
		if n := o.Delivered(); n != 0 {
			t.Fatalf("round %d: %d reports delivered, want none", r, n)
		}
	}
}

// TestFreshSupersedesDelayed: a fresh report clears the in-flight queue, so
// a stale report never arrives after a newer fresh one.
func TestFreshSupersedesDelayed(t *testing.T) {
	cfg := Config{DelayProb: 0.5, DelayRounds: 3}
	seq := applyAll(t, cfg, 60, 15, 21)
	// Reconstruct per-sensor origin rounds: the reading encodes its origin
	// (value = 100*origin + sensor), so delivered origins must be strictly
	// increasing per sensor.
	for i := 0; i < 60; i++ {
		lastOrigin := -1
		for r, o := range seq {
			if !o.Present[i] {
				continue
			}
			origin := r - o.Age[i]
			if got := float64(100*origin + i); o.Readings[i] != got {
				t.Fatalf("sensor %d round %d: reading %v inconsistent with age %d", i, r, o.Readings[i], o.Age[i])
			}
			if origin <= lastOrigin {
				t.Fatalf("sensor %d round %d: origin %d not newer than previous %d", i, r, origin, lastOrigin)
			}
			lastOrigin = origin
		}
	}
}

// TestStuckReadings: a stuck sensor reports its first value forever,
// present and fresh.
func TestStuckReadings(t *testing.T) {
	obs := applyAll(t, Config{StuckFrac: 1}, 25, 6, 13)
	for r, o := range obs {
		for i := range o.Present {
			if !o.Present[i] || o.Age[i] != 0 {
				t.Fatalf("round %d sensor %d: stuck sensor should report fresh", r, i)
			}
			if want := float64(i); o.Readings[i] != want {
				t.Fatalf("round %d sensor %d: reading %v, want frozen first value %v", r, i, o.Readings[i], want)
			}
		}
	}
}

// TestRoundsCounter tracks the implicit round sequence.
func TestRoundsCounter(t *testing.T) {
	in, err := NewInjector(Config{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.round != 0 || in.NumSensors() != 4 {
		t.Fatalf("fresh injector: rounds %d, sensors %d", in.round, in.NumSensors())
	}
	for r := 0; r < 3; r++ {
		if _, err := in.Apply(make([]float64, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if in.round != 3 {
		t.Fatalf("rounds %d after 3 applies", in.round)
	}
}
