package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

var update = flag.Bool("update", false, "rewrite golden checkpoint blobs")

// synthTrackerState is a hand-built tracker state exercising every field of
// the SMC payload: a materialized user mid-track, a touched-but-reset user
// (advanced RNG, uninitialized snapshot — the shape a migrated-away user
// leaves behind), and absent slots.
func synthTrackerState() smc.TrackerState {
	return smc.TrackerState{
		Seed:     0xfeedface,
		NumUsers: 5,
		Steps:    7,
		Users: []smc.UserCheckpoint{
			{
				User: 1,
				RNG:  rng.State{Cursor: 0x1234_5678_9abc_def0, Spare: -0.625, HasSpare: true},
				Snapshot: smc.UserSnapshot{
					Samples:     []geom.Point{geom.Pt(1.5, 2.25), geom.Pt(-3, 4.125)},
					Weights:     []float64{0.75, 0.25},
					LastUpdate:  6,
					Initialized: true,
					Velocity:    geom.Vec{DX: 0.5, DY: -1.25},
					HasVelocity: true,
					PrevMean:    geom.Pt(2, 3),
					HasPrevMean: true,
				},
			},
			{User: 4, RNG: rng.State{Cursor: 99}},
		},
	}
}

func synthFieldState() shard.FieldState {
	mk := func(seed uint64, user int, cursor uint64) smc.TrackerState {
		return smc.TrackerState{
			Seed: seed, NumUsers: 2, Steps: 3,
			Users: []smc.UserCheckpoint{{
				User: user,
				RNG:  rng.State{Cursor: cursor},
				Snapshot: smc.UserSnapshot{
					Samples:     []geom.Point{geom.Pt(7, 8)},
					Weights:     []float64{1},
					LastUpdate:  3,
					Initialized: true,
				},
			}},
		}
	}
	return shard.FieldState{
		Seed: 0xabad1dea, NumUsers: 2, Tiles: 2,
		Steps: 3, Handoffs: 4, Spills: 1, LastMax: 2, LastMean: 1.5,
		Owner: []int{0, 1},
		LastEst: []smc.Estimate{
			{
				Mean: geom.Pt(5, 6), Best: geom.Pt(5.5, 6.5),
				Samples: []geom.Point{geom.Pt(5, 6)}, Weights: []float64{1},
				Active: true, Stretch: 1.75,
			},
			{}, // a user with no estimate yet: all-zero, nil slices
		},
		Trackers: []smc.TrackerState{mk(11, 0, 42), mk(12, 1, 43)},
	}
}

// TestCodecRoundTrip pins the codec's canonical-encoding contract on
// synthesized states: encode → decode reproduces the state exactly (nil
// slices stay nil), and re-encoding the decoded state reproduces the bytes.
func TestCodecRoundTrip(t *testing.T) {
	tr := synthTrackerState()
	fd := synthFieldState()
	for _, tc := range []struct {
		name string
		c    Checkpoint
	}{
		{"smc", Checkpoint{SMC: &tr}},
		{"field", Checkpoint{Field: &fd}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := Encode(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.c) {
				t.Fatalf("decode mismatch:\n got %+v\nwant %+v", got, tc.c)
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
	if _, err := Encode(Checkpoint{}); err == nil {
		t.Error("empty checkpoint encoded")
	}
	if _, err := Encode(Checkpoint{SMC: &tr, Field: &fd}); err == nil {
		t.Error("double-state checkpoint encoded")
	}
}

// TestCheckpointEncodeAllocsOnce: Encode sizes the blob in a length pass
// over the layout walk, so a plain or sharded checkpoint costs exactly one
// allocation, the blob itself, and the blob fills its capacity.
func TestCheckpointEncodeAllocsOnce(t *testing.T) {
	tr := synthTrackerState()
	fd := synthFieldState()
	for _, ck := range []Checkpoint{{SMC: &tr}, {Field: &fd}} {
		blob, err := Encode(ck)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != cap(blob) {
			t.Errorf("blob of %d bytes in a buffer of %d", len(blob), cap(blob))
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Encode(ck); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("Encode allocates %.1f times per checkpoint, want 1", allocs)
		}
	}
}

// TestCodecRejectsCorruption drives the decoder through exhaustive
// single-bit flips and every truncation of a valid blob: each must fail
// with one of the typed sentinel errors, never succeed and never panic.
func TestCodecRejectsCorruption(t *testing.T) {
	st := synthTrackerState()
	blob, err := Encode(Checkpoint{SMC: &st})
	if err != nil {
		t.Fatal(err)
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
			errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) ||
			errors.Is(err, ErrMalformed)
	}
	for i := range blob {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			} else if !typed(err) {
				t.Fatalf("bit flip at byte %d bit %d: untyped error %v", i, bit, err)
			}
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		} else if !typed(err) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); !errors.Is(err, ErrChecksum) {
		t.Errorf("appended byte: got %v, want ErrChecksum", err)
	}

	// Version skew with a recomputed checksum must fail on the version, not
	// the checksum.
	skew := append([]byte(nil), blob...)
	skew[4], skew[5] = 0xff, 0xff
	if _, err := Decode(reseal(skew)); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: got %v, want ErrVersion", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Decode(reseal(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: got %v, want ErrBadMagic", err)
	}
	kind := append([]byte(nil), blob...)
	kind[6] = 9
	if _, err := Decode(reseal(kind)); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown kind: got %v, want ErrMalformed", err)
	}
}

// reseal recomputes a mutated blob's CRC trailer so the payload check under
// test is reached.
func reseal(blob []byte) []byte {
	out := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestCrashRestartResumesByteIdentically is the tentpole correctness proof:
// a tracker run N rounds straight through equals one run k rounds,
// checkpointed through the wire codec (Capture → Encode → Decode →
// RestoreInto), "crashed", rebuilt from config, restored, and run to N —
// result for result under DeepEqual. Pinned for the plain tracker on clean
// and fault-degraded streams and for a 2×2 sharded field mid-handoff, each
// at two worker counts (the restore path must not reintroduce a
// worker-count dependence).
func TestCrashRestartResumesByteIdentically(t *testing.T) {
	const k = 4
	w := testWorld(t)
	base := core.TrackerConfig{N: 120, M: 5, VMax: 5}
	sharded := base
	sharded.Shards = shard.Grid{Rows: 2, Cols: 2, Halo: 2}
	sharded.InitialPositions = w.initial
	cases := []struct {
		name   string
		cfg    core.TrackerConfig
		masked bool
	}{
		{"plain-clean", base, false},
		{"plain-masked", base, true},
		{"sharded-masked", sharded, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) core.StepTracker {
				cfg := tc.cfg
				cfg.Workers = workers
				tr, err := w.sniffer.NewStepTracker(testUsers, cfg, 99)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			ref := build(1)
			want := runRounds(t, ref, w, tc.masked, 0, testRounds)
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					orig := build(workers)
					head := runRounds(t, orig, w, tc.masked, 0, k)
					ck, err := Capture(orig)
					if err != nil {
						t.Fatal(err)
					}
					blob, err := Encode(ck)
					if err != nil {
						t.Fatal(err)
					}
					// The crash: orig is abandoned; everything the resumed
					// process knows crosses through blob.
					decoded, err := Decode(blob)
					if err != nil {
						t.Fatal(err)
					}
					fresh := build(workers)
					if err := decoded.RestoreInto(fresh); err != nil {
						t.Fatal(err)
					}
					if got := fresh.Steps(); got != k {
						t.Fatalf("restored Steps() = %d, want %d", got, k)
					}
					tail := runRounds(t, fresh, w, tc.masked, k, testRounds)
					got := append(append([]smc.StepResult(nil), head...), tail...)
					if !reflect.DeepEqual(got, want) {
						t.Fatal("restored run diverged from the uninterrupted run")
					}
				})
			}
		})
	}
}

// TestRestoreShapeMismatch pins the cross-shape rejections: a sharded blob
// cannot restore into a plain tracker and vice versa.
func TestRestoreShapeMismatch(t *testing.T) {
	w := testWorld(t)
	plain, err := w.sniffer.NewStepTracker(testUsers, core.TrackerConfig{N: 60, M: 5}, 99)
	if err != nil {
		t.Fatal(err)
	}
	field, err := w.sniffer.NewStepTracker(testUsers, core.TrackerConfig{
		N: 60, M: 5, Shards: shard.Grid{Rows: 2, Cols: 2, Halo: 2},
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	ckPlain, err := Capture(plain)
	if err != nil {
		t.Fatal(err)
	}
	ckField, err := Capture(field)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckPlain.RestoreInto(field); err == nil {
		t.Error("plain checkpoint restored into a sharded field")
	}
	if err := ckField.RestoreInto(plain); err == nil {
		t.Error("sharded checkpoint restored into a plain tracker")
	}
}

// TestCheckpointGoldenCompat is the format-compatibility gate: the v1 blobs
// under testdata/ must decode into exactly the synthesized states, forever.
// A change that alters the wire layout fails here and requires a version
// bump plus a new golden (go test ./internal/serve -run Golden -update).
func TestCheckpointGoldenCompat(t *testing.T) {
	tr := synthTrackerState()
	fd := synthFieldState()
	for _, tc := range []struct {
		file string
		c    Checkpoint
	}{
		{"checkpoint_v1_smc.golden", Checkpoint{SMC: &tr}},
		{"checkpoint_v1_field.golden", Checkpoint{Field: &fd}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			if *update {
				blob, err := Encode(tc.c)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update after a deliberate format change)", err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatalf("golden blob no longer decodes: %v", err)
			}
			if !reflect.DeepEqual(got, tc.c) {
				t.Fatal("golden blob decodes to a different state: wire format drifted without a version bump")
			}
			again, err := Encode(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatal("current encoder no longer reproduces the golden bytes")
			}
		})
	}
}

// TestRestoreRejectsNonFiniteBlob: a well-formed blob whose state carries a
// NaN decodes (the codec passes float bits through verbatim) but never
// restores, for a plain tracker and for a sharded field, and the refused
// tracker keeps stepping as if the blob had never arrived.
func TestRestoreRejectsNonFiniteBlob(t *testing.T) {
	w := testWorld(t)
	for _, tc := range []struct {
		name   string
		cfg    core.TrackerConfig
		poison func(c Checkpoint)
	}{
		{"plain", core.TrackerConfig{N: 60, M: 5}, func(c Checkpoint) {
			c.SMC.Users[0].Snapshot.Weights[0] = math.NaN()
		}},
		{"sharded", core.TrackerConfig{N: 60, M: 5, Shards: shard.Grid{Rows: 2, Cols: 2, Halo: 2}}, func(c Checkpoint) {
			c.Field.LastEst[0].Mean.Y = math.NaN()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() core.StepTracker {
				tr, err := w.sniffer.NewStepTracker(testUsers, tc.cfg, 99)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			tr, twin := build(), build()
			runRounds(t, tr, w, false, 0, 2)
			runRounds(t, twin, w, false, 0, 2)
			ck, err := Capture(tr)
			if err != nil {
				t.Fatal(err)
			}
			tc.poison(ck)
			blob, err := Encode(ck)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := decoded.RestoreInto(tr); err == nil {
				t.Fatal("non-finite checkpoint restored")
			}
			if !reflect.DeepEqual(runRounds(t, tr, w, false, 2, 4), runRounds(t, twin, w, false, 2, 4)) {
				t.Fatal("refused restore changed the tracker")
			}
		})
	}
}

// TestCodecOversizedCounts decodes two hostile SMC blobs that a 32-bit
// build used to mis-read: a population of 2^32+1, which an int conversion
// truncated to 1 (so the blob re-encoded to different bytes), and a u32
// sample count of 2^31, which became a negative int and panicked in
// makeslice. The sample count is ErrTruncated on every build. The
// population is a valid state where an int holds it and ErrMalformed where
// it does not.
func TestCodecOversizedCounts(t *testing.T) {
	smcBlob := func(numUsers uint64, users []byte) []byte {
		b := append([]byte(nil), checkpointMagic[:]...)
		b = binary.LittleEndian.AppendUint16(b, Version)
		b = append(b, kindSMC)
		b = binary.LittleEndian.AppendUint64(b, 0) // seed
		b = binary.LittleEndian.AppendUint64(b, numUsers)
		b = binary.LittleEndian.AppendUint64(b, 0) // steps
		b = append(b, users...)
		return reseal(append(b, 0, 0, 0, 0))
	}

	huge := smcBlob(1<<32+1, []byte{0, 0, 0, 0})
	got, err := Decode(huge)
	switch {
	case strconv.IntSize == 32:
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("population 2^32+1 on a 32-bit build: got %v, want ErrMalformed", err)
		}
	case err != nil:
		t.Errorf("population 2^32+1: %v", err)
	default:
		if uint64(got.SMC.NumUsers) != 1<<32+1 {
			t.Errorf("population 2^32+1 decoded as %d", got.SMC.NumUsers)
		}
		if again, err := Encode(got); err != nil || !bytes.Equal(again, huge) {
			t.Errorf("population 2^32+1 does not re-encode to itself: %v", err)
		}
	}

	// One user: index 0, a zero RNG state and snapshot, then 2^31 samples.
	user := binary.LittleEndian.AppendUint32(nil, 1)
	user = append(user, make([]byte, 4+8+8+1+1+8+8+8+1+16+1)...)
	user = binary.LittleEndian.AppendUint32(user, 1<<31)
	if _, err := Decode(smcBlob(2, user)); !errors.Is(err, ErrTruncated) {
		t.Errorf("sample count 2^31: got %v, want ErrTruncated", err)
	}
}

// TestCodecRefusesUnreadableState pins that Encode refuses a state its
// own Decode would reject, instead of writing a blob that cannot be read
// back: table lengths that disagree with the population or the tile count,
// and the user-list and range checks the decoder applies.
func TestCodecRefusesUnreadableState(t *testing.T) {
	fields := map[string]func(st *shard.FieldState){
		"short owner table":   func(st *shard.FieldState) { st.Owner = st.Owner[:1] },
		"long estimate table": func(st *shard.FieldState) { st.LastEst = append(st.LastEst, smc.Estimate{}) },
		"missing tile":        func(st *shard.FieldState) { st.Trackers = st.Trackers[:1] },
		"owner past tiles":    func(st *shard.FieldState) { st.Owner[1] = 2 },
		"negative owner":      func(st *shard.FieldState) { st.Owner[1] = -1 },
		"negative handoffs":   func(st *shard.FieldState) { st.Handoffs = -1 },
	}
	for name, mutate := range fields {
		st := synthFieldState()
		mutate(&st)
		if _, err := Encode(Checkpoint{Field: &st}); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	trackers := map[string]func(st *smc.TrackerState){
		"negative population":  func(st *smc.TrackerState) { st.NumUsers = -1 },
		"user past population": func(st *smc.TrackerState) { st.Users[1].User = 5 },
		"users out of order":   func(st *smc.TrackerState) { st.Users[0].User = 4 },
		"initialized, no samples": func(st *smc.TrackerState) {
			st.Users[0].Snapshot.Samples, st.Users[0].Snapshot.Weights = nil, nil
		},
		"weights misaligned": func(st *smc.TrackerState) { st.Users[0].Snapshot.Weights = []float64{1} },
	}
	for name, mutate := range trackers {
		st := synthTrackerState()
		mutate(&st)
		if _, err := Encode(Checkpoint{SMC: &st}); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// BenchmarkCheckpointCodec times Encode and Decode of a plain tracker's
// state at 3 users × 500 samples, the shape of perfbench's serve-stream
// tenants.
func BenchmarkCheckpointCodec(b *testing.B) {
	st := smc.TrackerState{Seed: 1, NumUsers: 3, Steps: 40}
	for u := 0; u < 3; u++ {
		uc := smc.UserCheckpoint{User: u, RNG: rng.State{Cursor: uint64(u) * 977}}
		s := &uc.Snapshot
		s.Initialized, s.LastUpdate, s.HasVelocity = true, 40, true
		for i := 0; i < 500; i++ {
			s.Samples = append(s.Samples, geom.Pt(float64(i)/17, float64(u*i)/31))
			s.Weights = append(s.Weights, 1/500.0)
		}
		st.Users = append(st.Users, uc)
	}
	ck := Checkpoint{SMC: &st}
	blob, err := Encode(ck)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := Encode(ck); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
