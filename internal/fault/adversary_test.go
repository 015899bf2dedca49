package fault

import (
	"math"
	"testing"

	"fluxtrack/internal/rng"
)

// Behaviors returns a copy of the per-sensor behavior assignment — the
// ground truth a defense evaluation scores its flagged sensors against.
func (a *Adversary) Behaviors() []Behavior {
	return append([]Behavior(nil), a.behavior...)
}

func TestAdversaryValidate(t *testing.T) {
	bad := []AdversaryConfig{
		{InflateFrac: -0.1},
		{DeflateFrac: 1.5},
		{ReplayFrac: math.NaN()},
		{InflateFrac: 0.6, DeflateFrac: 0.6},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
	}
	ok := AdversaryConfig{InflateFrac: 0.3, DeflateFrac: 0.3, ReplayFrac: 0.4}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewAdversaryValidation(t *testing.T) {
	if _, err := NewAdversary(AdversaryConfig{}, 0, 1); err == nil {
		t.Error("zero sensors accepted")
	}
	if _, err := NewAdversary(AdversaryConfig{InflateFrac: 7}, 4, 1); err == nil {
		t.Error("invalid config accepted")
	}
	a, err := NewAdversary(AdversaryConfig{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(make([]float64, 3)); err == nil {
		t.Error("mismatched reading length accepted")
	}
}

// TestAdversaryHonestPassThrough: the zero config copies readings through
// untouched, into a fresh slice.
func TestAdversaryHonestPassThrough(t *testing.T) {
	a, err := NewAdversary(AdversaryConfig{}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	out, err := a.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("honest pass-through altered reading %d: %v -> %v", i, in[i], out[i])
		}
	}
	out[0] = -1
	if in[0] == -1 {
		t.Error("Apply returned the caller's backing array")
	}
	if a.NumCompromised() != 0 {
		t.Errorf("zero config compromised %d sensors", a.NumCompromised())
	}
}

// TestAdversaryDeterminism: two adversaries from the same (config, sensor
// count, seed) must tamper identically round for round, and a different
// seed must compromise a different sensor set.
func TestAdversaryDeterminism(t *testing.T) {
	cfg := AdversaryConfig{InflateFrac: 0.15, DeflateFrac: 0.1, ReplayFrac: 0.1}
	const n = 120
	a1, err := NewAdversary(cfg, n, 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAdversary(cfg, n, 99)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := a1.Behaviors(), a2.Behaviors()
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("behavior assignment differs at sensor %d: %v vs %v", i, b1[i], b2[i])
		}
	}
	src := rng.New(5)
	for r := 0; r < 8; r++ {
		in := make([]float64, n)
		for i := range in {
			in[i] = src.Uniform(0, 50)
		}
		o1, err := a1.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := a2.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("round %d sensor %d: %v vs %v", r, i, o1[i], o2[i])
			}
		}
	}

	a3, err := NewAdversary(cfg, n, 100)
	if err != nil {
		t.Fatal(err)
	}
	b3 := a3.Behaviors()
	same := 0
	for i := range b1 {
		if b1[i] == b3[i] {
			same++
		}
	}
	if same == len(b1) {
		t.Error("different seeds produced identical behavior assignments")
	}
}

// TestAdversaryFractions: over many sensors the banded draw must land each
// behavior near its configured fraction, and the total equals the sum.
func TestAdversaryFractions(t *testing.T) {
	cfg := AdversaryConfig{InflateFrac: 0.10, DeflateFrac: 0.15, ReplayFrac: 0.05}
	n := 20000
	a, err := NewAdversary(cfg, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Behavior]int{}
	for _, b := range a.Behaviors() {
		counts[b]++
	}
	check := func(b Behavior, want float64) {
		got := float64(counts[b]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v fraction = %.3f, want ~%.2f", b, got, want)
		}
	}
	check(Inflate, 0.10)
	check(Deflate, 0.15)
	check(Replay, 0.05)
	if got, want := a.NumCompromised(), counts[Inflate]+counts[Deflate]+counts[Replay]; got != want {
		t.Errorf("NumCompromised = %d, want %d", got, want)
	}
}

// TestAdversaryInflateDeflate pins the multiplicative behaviors against the
// ground-truth behavior assignment.
func TestAdversaryInflateDeflate(t *testing.T) {
	cfg := AdversaryConfig{InflateFrac: 0.3, DeflateFrac: 0.3}
	a, err := NewAdversary(cfg, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 200)
	for i := range in {
		in[i] = float64(i + 1)
	}
	out, err := a.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range a.Behaviors() {
		want := in[i]
		switch b {
		case Inflate:
			want = in[i] * 4
		case Deflate:
			want = in[i] * 0.25
		}
		if out[i] != want {
			t.Fatalf("sensor %d (%v): got %v, want %v", i, b, out[i], want)
		}
	}
}

// TestAdversaryReplay drives every sensor through the replay behavior with
// distinct per-round readings and checks the exact lag semantics: truth at
// round 0, the round-0 snapshot while the ring is young, then the reading
// from exactly ReplayLag rounds ago.
func TestAdversaryReplay(t *testing.T) {
	lag := 3
	cfg := AdversaryConfig{ReplayFrac: 1}
	n := 10
	a, err := NewAdversary(cfg, n, 21)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCompromised() != n {
		t.Fatalf("ReplayFrac=1 compromised %d of %d", a.NumCompromised(), n)
	}
	reading := func(r, i int) float64 { return float64(1000*r + i) }
	for r := 0; r < 10; r++ {
		in := make([]float64, n)
		for i := range in {
			in[i] = reading(r, i)
		}
		out, err := a.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			var want float64
			switch {
			case r == 0:
				want = reading(0, i) // nothing to replay yet
			case r < lag:
				want = reading(0, i) // young ring: first snapshot
			default:
				want = reading(r-lag, i)
			}
			if out[i] != want {
				t.Fatalf("round %d sensor %d: got %v, want %v", r, i, out[i], want)
			}
		}
	}
	if a.round != 10 {
		t.Errorf("round = %d, want 10", a.round)
	}
}

// FuzzAdversaryApply: the adversary report transform must never panic and
// must preserve its structural contract — correct length, honest sensors
// copied through bit-for-bit — for any reading values (including NaN/Inf)
// and any byte-derived configuration.
func FuzzAdversaryApply(f *testing.F) {
	f.Add(uint64(1), uint8(25), uint8(25), uint8(25), float64(8), float64(1e300))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(255), math.Inf(1), math.NaN())
	f.Add(uint64(0), uint8(255), uint8(0), uint8(0), -5.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, infl, defl, repl uint8, r0, r1 float64) {
		// Bytes map to [0, 1] fractions; clamp the sum into validity so the
		// fuzzer exercises Apply, not just Validate.
		fi := float64(infl) / 255
		fd := float64(defl) / 255
		fr := float64(repl) / 255
		if sum := fi + fd + fr; sum > 1 {
			// The slack keeps the normalized sum under 1 despite rounding.
			sum *= 1 + 1e-9
			fi, fd, fr = fi/sum, fd/sum, fr/sum
		}
		cfg := AdversaryConfig{InflateFrac: fi, DeflateFrac: fd, ReplayFrac: fr}
		const n = 24
		a, err := NewAdversary(cfg, n, seed)
		if err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
		behaviors := a.Behaviors()
		for round := 0; round < 5; round++ {
			in := make([]float64, n)
			for i := range in {
				// Mix the two fuzzed values across sensors and rounds,
				// including whatever non-finite garbage the fuzzer found.
				if (i+round)%2 == 0 {
					in[i] = r0 + float64(i)
				} else {
					in[i] = r1 * float64(round+1)
				}
			}
			out, err := a.Apply(in)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if len(out) != len(in) {
				t.Fatalf("round %d: %d readings out, %d in", round, len(out), len(in))
			}
			for i, b := range behaviors {
				if b == Honest && !equalBits(out[i], in[i]) {
					t.Fatalf("round %d: honest sensor %d altered: %v -> %v", round, i, in[i], out[i])
				}
			}
		}
	})
}

// equalBits compares float64s including NaN (bit-pattern identity is not
// required, NaN just has to stay NaN).
func equalBits(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
