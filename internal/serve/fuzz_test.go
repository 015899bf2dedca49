package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/smc"
)

// typedDecodeError reports whether err is one of the codec's sentinel
// failures — the only errors Decode is allowed to return.
func typedDecodeError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrMalformed)
}

// FuzzCheckpointDecode throws arbitrary bytes at the decoder. The contract:
// no panic ever; rejection always carries a typed sentinel; and anything
// accepted must be canonical — re-encoding the decoded state reproduces the
// input byte for byte (so there is exactly one wire form per state, which
// is what lets the golden-blob gate pin the format).
func FuzzCheckpointDecode(f *testing.F) {
	tr := synthTrackerState()
	fd := synthFieldState()
	if blob, err := Encode(Checkpoint{SMC: &tr}); err == nil {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		mut := append([]byte(nil), blob...)
		mut[len(mut)/2] ^= 0x40
		f.Add(mut)
	}
	if blob, err := Encode(Checkpoint{Field: &fd}); err == nil {
		f.Add(blob)
		f.Add(blob[:7])
	}
	f.Add([]byte("FXCP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			if !typedDecodeError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if (c.SMC == nil) == (c.Field == nil) {
			t.Fatal("accepted checkpoint does not carry exactly one state")
		}
		again, err := Encode(c)
		if err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted blob is not canonical: re-encode differs")
		}
	})
}

// FuzzCheckpointRoundTrip synthesizes tracker states from fuzzed scalars
// and pins encode → decode → re-encode exactness: the decoded state is
// DeepEqual to the original and the second encoding is byte-identical.
// Float bit patterns pass through verbatim (including NaN payloads and
// signed zeros), so the fuzzer explores the full float64 space.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(3), 0.5, 1.25, uint8(2), false)
	f.Add(uint64(0), uint64(0), math.Inf(1), -0.0, uint8(0), true)
	f.Add(^uint64(0), uint64(1<<40), math.NaN(), 1e-300, uint8(7), true)
	f.Fuzz(func(t *testing.T, seed, cursor uint64, w0, x0 float64, n uint8, spare bool) {
		users := int(n%5) + 1
		samples := int(n % 4)
		uc := smc.UserCheckpoint{
			User: 0,
			RNG:  rng.State{Cursor: cursor, Spare: w0, HasSpare: spare},
		}
		for i := 0; i < samples; i++ {
			uc.Snapshot.Samples = append(uc.Snapshot.Samples, geom.Pt(x0*float64(i+1), w0))
			uc.Snapshot.Weights = append(uc.Snapshot.Weights, w0+float64(i))
		}
		uc.Snapshot.Initialized = samples > 0
		uc.Snapshot.LastUpdate = x0
		st := smc.TrackerState{Seed: seed, NumUsers: users, Steps: int(n), Users: []smc.UserCheckpoint{uc}}
		c := Checkpoint{SMC: &st}
		blob, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !stateBitsEqual(got.SMC, &st) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.SMC, &st)
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
}

// stateBitsEqual is DeepEqual modulo NaN: floats compare by bit pattern, so
// NaN-carrying states (which the codec must preserve exactly) still match.
func stateBitsEqual(a, b *smc.TrackerState) bool {
	return reflect.DeepEqual(bitsView(*a), bitsView(*b))
}

// bitsView maps every float in the state to its IEEE bit pattern.
type bitsTracker struct {
	Seed            uint64
	NumUsers, Steps int
	Users           []bitsUser
}

type bitsUser struct {
	User        int
	Cursor      uint64
	Spare       uint64
	HasSpare    bool
	Samples     [][2]uint64
	Weights     []uint64
	LastUpdate  uint64
	Initialized bool
	Velocity    [2]uint64
	HasVelocity bool
	PrevMean    [2]uint64
	HasPrevMean bool
}

func bitsView(st smc.TrackerState) bitsTracker {
	out := bitsTracker{Seed: st.Seed, NumUsers: st.NumUsers, Steps: st.Steps}
	b := math.Float64bits
	for _, uc := range st.Users {
		s := uc.Snapshot
		bu := bitsUser{
			User: uc.User, Cursor: uc.RNG.Cursor, Spare: b(uc.RNG.Spare), HasSpare: uc.RNG.HasSpare,
			LastUpdate: b(s.LastUpdate), Initialized: s.Initialized,
			Velocity: [2]uint64{b(s.Velocity.DX), b(s.Velocity.DY)}, HasVelocity: s.HasVelocity,
			PrevMean: [2]uint64{b(s.PrevMean.X), b(s.PrevMean.Y)}, HasPrevMean: s.HasPrevMean,
		}
		for _, p := range s.Samples {
			bu.Samples = append(bu.Samples, [2]uint64{b(p.X), b(p.Y)})
		}
		for _, w := range s.Weights {
			bu.Weights = append(bu.Weights, b(w))
		}
		out.Users = append(out.Users, bu)
	}
	return out
}

// FuzzObserve throws arbitrary bodies at one small tenant's observe
// handler. The contract: no panic, in the handler or in the tenant's
// stepping goroutine; a body the handler accepts (202, or 429 when the
// queue is full) decodes to sensor-length readings, present and age masks
// that are absent or sensor-length, and no negative age; and every other
// body gets 400.
func FuzzObserve(f *testing.F) {
	srv, err := New(Config{Scenario: core.ScenarioConfig{Nodes: 400}, Seed: 77})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenant/fz",
		strings.NewReader(`{"users":1,"samples":20,"track_m":5}`)))
	if rec.Code != http.StatusCreated {
		f.Fatalf("create tenant: %d %s", rec.Code, rec.Body)
	}
	n := srv.Sensors()
	readings := make([]float64, n)
	stale := make([]int, n)
	for i := range readings {
		readings[i] = float64(i%7) + 0.5
		stale[i] = 3
	}
	for _, o := range []Observation{
		{T: 1, Readings: readings, Age: []int{1}}, // one age for every sensor's reading
		{T: 2, Readings: readings, Age: stale},    // fully stale, no present mask
	} {
		body, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenant/fz/observe", bytes.NewReader(body)))
		var o Observation
		valid := json.NewDecoder(bytes.NewReader(body)).Decode(&o) == nil &&
			len(o.Readings) == n &&
			(o.Present == nil || len(o.Present) == n) &&
			(o.Age == nil || len(o.Age) == n)
		for _, a := range o.Age {
			valid = valid && a >= 0
		}
		switch rec.Code {
		case http.StatusAccepted, http.StatusTooManyRequests:
			if !valid {
				t.Fatalf("status %d for a malformed body %q", rec.Code, body)
			}
		case http.StatusBadRequest:
			if valid {
				t.Fatalf("400 for a well-formed body %q: %s", body, rec.Body)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzTenantCreate throws arbitrary bodies at the tenant-creation handler.
// The contract: no panic and no 5xx; a 201 registers a tenant that answers
// its estimate route and that DELETE removes; any 4xx registers nothing.
func FuzzTenantCreate(f *testing.F) {
	srv, err := New(Config{Scenario: core.ScenarioConfig{Nodes: 400}, Seed: 77})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	for _, c := range []TenantConfig{
		{},
		{Users: 2, Samples: 20, TrackM: 5},
		{Users: 3, Samples: 20, TrackM: 5, Shards: "2x2", Halo: 2, TileCapacity: 2},
		{Users: 1, Samples: 20, TrackM: 5, Robust: "both", ActiveSetLimit: 1, Queue: 4},
	} {
		body, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"users":1,"queue":1000000000000}`))
	f.Add([]byte(`{"users":1000000000000,"shards":"1x1"}`))
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(http.MethodPost, "/v1/tenant/fz", body)
		registered := do(http.MethodGet, "/v1/tenant/fz/estimate", nil).Code == http.StatusOK
		switch {
		case rec.Code == http.StatusCreated:
			if !registered {
				t.Fatalf("201 for %q but the tenant does not answer", body)
			}
			if del := do(http.MethodDelete, "/v1/tenant/fz", nil); del.Code != http.StatusNoContent {
				t.Fatalf("delete after 201: %d %s", del.Code, del.Body)
			}
			if do(http.MethodGet, "/v1/tenant/fz/estimate", nil).Code != http.StatusNotFound {
				t.Fatal("deleted tenant still answers")
			}
		case rec.Code >= 400 && rec.Code < 500:
			if registered {
				t.Fatalf("%d for %q registered a tenant", rec.Code, body)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
