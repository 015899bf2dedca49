// Package serve hosts the tracking pipeline as a resident multi-tenant
// streaming service: each tenant owns a tracker (plain smc.Tracker or
// sharded shard.Field) fed by a bounded ingestion queue with explicit
// backpressure, stepped by a dedicated goroutine, and observable through
// the internal/obs registry. This file is the tenant state checkpoint
// codec: a versioned, checksummed binary encoding of the tracker state
// surfaces (smc.TrackerState, shard.FieldState) so a process restart or a
// tenant migration resumes mid-track byte-identically.
//
// Wire format (all integers little-endian):
//
//	[0:4)   magic "FXCP"
//	[4:6)   format version (currently 1)
//	[6]     kind: 1 = plain SMC tracker, 2 = sharded field
//	[7:n-4) payload (kind-specific, see the trackerState and fieldState walks)
//	[n-4:n) IEEE CRC-32 over bytes [0, n-4)
//
// Versioning rules (DESIGN.md §6.8): the version covers the entire payload
// layout — any field added, removed, or reordered bumps it. A decoder only
// accepts versions it was built to read and must keep reading every version
// it ever shipped (the golden-blob compatibility gate in CI enforces that
// v1 blobs restore forever). Corrupt input of any shape — truncated,
// bit-flipped, version-skewed, oversized counts — yields a typed error,
// never a panic and never a silently wrong state: the trailing CRC rejects
// every mutation, and the fuzz battery (fuzz_test.go) hammers the parser
// with hostile bytes.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

// Version is the current checkpoint format version.
const Version = 1

// checkpointMagic brands every checkpoint blob.
var checkpointMagic = [4]byte{'F', 'X', 'C', 'P'}

const (
	kindSMC   = 1 // payload is one smc.TrackerState
	kindShard = 2 // payload is one shard.FieldState
)

// Typed decode failures; test with errors.Is. Every error a decoder can
// return wraps exactly one of these.
var (
	// ErrBadMagic: the blob does not start with the checkpoint magic.
	ErrBadMagic = errors.New("serve: checkpoint: bad magic")
	// ErrVersion: the format version is not one this decoder reads.
	ErrVersion = errors.New("serve: checkpoint: unsupported version")
	// ErrTruncated: the blob ends before its structure does.
	ErrTruncated = errors.New("serve: checkpoint: truncated")
	// ErrChecksum: the trailing CRC-32 does not match the content.
	ErrChecksum = errors.New("serve: checkpoint: checksum mismatch")
	// ErrMalformed: framing and checksum pass but the payload violates a
	// structural invariant (impossible counts, trailing garbage, unknown
	// kind). A well-formed encoder never produces this.
	ErrMalformed = errors.New("serve: checkpoint: malformed")
)

// Checkpoint is a decoded tenant state: exactly one of the two fields is
// set, mirroring the two tracker shapes a tenant can host.
type Checkpoint struct {
	SMC   *smc.TrackerState
	Field *shard.FieldState
}

// Capture exports the resumable state of a StepTracker into a Checkpoint.
// It never mutates the tracker.
func Capture(st core.StepTracker) (Checkpoint, error) {
	switch tr := st.(type) {
	case *smc.Tracker:
		s := tr.ExportState()
		return Checkpoint{SMC: &s}, nil
	case *shard.Field:
		s := tr.ExportState()
		return Checkpoint{Field: &s}, nil
	default:
		return Checkpoint{}, fmt.Errorf("serve: cannot checkpoint tracker type %T", st)
	}
}

// RestoreInto replays the checkpoint into a tracker of the matching shape,
// built from the same configuration and seed the state was exported under.
func (c Checkpoint) RestoreInto(st core.StepTracker) error {
	switch tr := st.(type) {
	case *smc.Tracker:
		if c.SMC == nil {
			return fmt.Errorf("%w: sharded checkpoint restored into a plain tracker", ErrMalformed)
		}
		return tr.RestoreState(*c.SMC)
	case *shard.Field:
		if c.Field == nil {
			return fmt.Errorf("%w: plain checkpoint restored into a sharded field", ErrMalformed)
		}
		return tr.RestoreState(*c.Field)
	default:
		return fmt.Errorf("serve: cannot restore into tracker type %T", st)
	}
}

// Encode serializes the checkpoint into the versioned binary format. The
// encoding is canonical: equal states produce identical bytes, and every
// blob Decode accepts re-encodes to exactly itself (the fuzz round-trip
// target pins this). A state Decode would reject — a table whose length
// disagrees with the population or tile count, users out of order, an
// integer its field cannot hold — is an ErrMalformed error, not a blob.
func Encode(ck Checkpoint) ([]byte, error) {
	if (ck.SMC == nil) == (ck.Field == nil) {
		return nil, errors.New("serve: checkpoint must carry exactly one tracker state")
	}
	kind := byte(kindSMC)
	if ck.Field != nil {
		kind = kindShard
	}
	walk := func(c *codec) {
		if head := c.next(7); head != nil {
			copy(head, checkpointMagic[:])
			binary.LittleEndian.PutUint16(head[4:], Version)
			head[6] = kind
		}
		if ck.SMC != nil {
			c.trackerState(ck.SMC)
		} else {
			c.fieldState(ck.Field)
		}
	}
	// The length pass runs every check and sizes the blob, so the writing
	// pass allocates it once.
	var size codec
	walk(&size)
	if size.err != nil {
		return nil, size.err
	}
	c := codec{buf: make([]byte, 0, size.pos+4)}
	walk(&c)
	return binary.LittleEndian.AppendUint32(c.buf, crc32.ChecksumIEEE(c.buf)), nil
}

// Decode parses a checkpoint blob, rejecting every malformed input with a
// typed error. It never panics on hostile bytes.
func Decode(data []byte) (Checkpoint, error) {
	const overhead = 4 + 2 + 1 + 4 // magic + version + kind + crc
	if len(data) < overhead {
		return Checkpoint{}, fmt.Errorf("%w: %d bytes is below the %d-byte envelope", ErrTruncated, len(data), overhead)
	}
	if [4]byte(data[:4]) != checkpointMagic {
		return Checkpoint{}, fmt.Errorf("%w: got % x", ErrBadMagic, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return Checkpoint{}, fmt.Errorf("%w: blob is v%d, decoder reads v%d", ErrVersion, v, Version)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return Checkpoint{}, fmt.Errorf("%w: computed %#x, stored %#x", ErrChecksum, got, want)
	}
	c := codec{dec: true, buf: body[7:]}
	var ck Checkpoint
	switch kind := body[6]; kind {
	case kindSMC:
		ck.SMC = new(smc.TrackerState)
		c.trackerState(ck.SMC)
	case kindShard:
		ck.Field = new(shard.FieldState)
		c.fieldState(ck.Field)
	default:
		return Checkpoint{}, fmt.Errorf("%w: unknown kind %d", ErrMalformed, kind)
	}
	if c.err == nil && c.pos != len(c.buf) {
		c.failf(ErrMalformed, "%d trailing payload bytes", len(c.buf)-c.pos)
	}
	if c.err != nil {
		return Checkpoint{}, c.err
	}
	return ck, nil
}

// ---- the payload layout ----

// trackerState walks one smc.TrackerState: seed, population, steps, then
// the materialized users, strictly ascending within the population.
func (c *codec) trackerState(st *smc.TrackerState) {
	c.u64(&st.Seed)
	c.u64Int(&st.NumUsers, "user population")
	c.u64Int(&st.Steps, "step count")
	// One user costs at least 47 payload bytes (index + RNG + flags +
	// bookkeeping + two empty slice counts).
	n := c.count(len(st.Users), 47, "tracker users")
	if c.err == nil && n > st.NumUsers {
		c.failf(ErrMalformed, "%d user slots for a population of %d", n, st.NumUsers)
	}
	if c.dec && c.err == nil && n > 0 {
		st.Users = make([]smc.UserCheckpoint, n)
	}
	prev := -1
	for i := 0; i < n && c.err == nil; i++ {
		uc := &st.Users[i]
		c.u32Int(&uc.User, "user index")
		if c.err == nil && (uc.User <= prev || uc.User >= st.NumUsers) {
			c.failf(ErrMalformed, "user index %d after %d (population %d)", uc.User, prev, st.NumUsers)
		}
		prev = uc.User
		c.u64(&uc.RNG.Cursor)
		c.f64(&uc.RNG.Spare)
		c.boolean(&uc.RNG.HasSpare)
		s := &uc.Snapshot
		c.boolean(&s.Initialized)
		c.f64(&s.LastUpdate)
		c.f64(&s.Velocity.DX)
		c.f64(&s.Velocity.DY)
		c.boolean(&s.HasVelocity)
		c.point(&s.PrevMean)
		c.boolean(&s.HasPrevMean)
		c.points(&s.Samples, "user samples")
		c.floats(&s.Weights, "user weights")
		if c.err == nil && s.Initialized && (len(s.Samples) == 0 || len(s.Samples) != len(s.Weights)) {
			c.failf(ErrMalformed, "initialized user %d with %d samples, %d weights",
				uc.User, len(s.Samples), len(s.Weights))
		}
	}
}

// estimate walks one smc.Estimate.
func (c *codec) estimate(est *smc.Estimate) {
	c.point(&est.Mean)
	c.point(&est.Best)
	c.f64(&est.Stretch)
	c.boolean(&est.Active)
	c.points(&est.Samples, "estimate samples")
	c.floats(&est.Weights, "estimate weights")
}

// fieldState walks one shard.FieldState: the scalars, then NumUsers owner
// entries, NumUsers cached estimates and Tiles tile trackers. The three
// tables carry no count of their own; their lengths are the population and
// the tile count.
func (c *codec) fieldState(st *shard.FieldState) {
	c.u64(&st.Seed)
	c.u64Int(&st.NumUsers, "field population")
	c.u32Int(&st.Tiles, "tile count")
	c.u64Int(&st.Steps, "field steps")
	c.u64Int(&st.Handoffs, "handoffs")
	c.u64Int(&st.Spills, "spills")
	c.u64Int(&st.LastMax, "imbalance max")
	c.f64(&st.LastMean)
	// An owner entry is 4 bytes and an estimate at least 49 (two points,
	// stretch, flag, two empty slice counts).
	if c.table(len(st.Owner), st.NumUsers, 4, "owner table") && c.dec && st.NumUsers > 0 {
		st.Owner = make([]int, st.NumUsers)
	}
	for j := 0; j < st.NumUsers && c.err == nil; j++ {
		c.u32Int(&st.Owner[j], "owner")
		if c.err == nil && st.Owner[j] >= st.Tiles {
			c.failf(ErrMalformed, "owner[%d] = %d with %d tiles", j, st.Owner[j], st.Tiles)
		}
	}
	if c.table(len(st.LastEst), st.NumUsers, 49, "estimate table") && c.dec && st.NumUsers > 0 {
		st.LastEst = make([]smc.Estimate, st.NumUsers)
	}
	for j := 0; j < st.NumUsers && c.err == nil; j++ {
		c.estimate(&st.LastEst[j])
	}
	// One tile tracker costs at least 28 payload bytes (seed + population +
	// steps + empty user count).
	if c.table(len(st.Trackers), st.Tiles, 28, "tile trackers") && c.dec && st.Tiles > 0 {
		st.Trackers = make([]smc.TrackerState, st.Tiles)
	}
	for i := 0; i < st.Tiles && c.err == nil; i++ {
		c.trackerState(&st.Trackers[i])
	}
}

// ---- codec ----

// codec moves one payload in either direction, so the walks above are the
// only description of the layout. Encoding (dec false) writes each field
// of a state at the end of buf and never writes to the state; it runs
// twice, a length pass without a buffer that only counts the bytes in pos,
// then the pass that writes them into a buffer of that capacity. Decoding
// reads each field from buf at pos into the zero state it is given,
// leaving empty slices nil. The first failure sticks in err and turns every later move
// into a no-op, so a walk looks at err only where it branches or indexes.
//
// The checks run in both directions, so Encode refuses any state its own
// Decode would reject. Decoding also checks every read against the bytes
// left, and every element count against the bytes that could back it
// before anything is allocated, so hostile counts can neither panic nor
// balloon memory. Integers are compared as unsigned values before any int
// conversion, so a 32-bit build rejects what an int cannot hold instead of
// truncating it.
type codec struct {
	dec bool
	buf []byte
	pos int
	err error
}

// Limits of the integer fields: a value above one does not fit its wire
// field, does not fit an int on this platform, or, for the u64 counters,
// is implausible.
const (
	maxU32Int = min(math.MaxUint32, math.MaxInt)
	maxU64Int = min(math.MaxInt64/2, math.MaxInt)
)

func (c *codec) failf(sentinel error, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{sentinel}, args...)...)
	}
}

// take consumes the next n payload bytes when decoding; it returns nil
// once the codec has failed.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if rem := len(c.buf) - c.pos; rem < n {
		c.failf(ErrTruncated, "payload needs %d more bytes, has %d", n, rem)
		return nil
	}
	c.pos += n
	return c.buf[c.pos-n : c.pos]
}

// next extends the encoded blob by n bytes and returns them for the
// encoder to fill; in the length pass it only counts them and returns nil.
func (c *codec) next(n int) []byte {
	c.pos += n
	if c.buf == nil {
		return nil
	}
	c.buf = c.buf[:c.pos]
	return c.buf[c.pos-n:]
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		if b := c.next(4); b != nil {
			binary.LittleEndian.PutUint32(b, *v)
		}
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		if b := c.next(8); b != nil {
			binary.LittleEndian.PutUint64(b, *v)
		}
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

func (c *codec) f64(v *float64) {
	bits := math.Float64bits(*v)
	c.u64(&bits)
	if c.dec {
		*v = math.Float64frombits(bits)
	}
}

func (c *codec) point(p *geom.Point) { c.f64(&p.X); c.f64(&p.Y) }

// boolean moves a bool as one byte, 0 or 1; any other byte is malformed.
func (c *codec) boolean(v *bool) {
	if !c.dec {
		if b := c.next(1); b != nil && *v {
			b[0] = 1
		}
	} else if b := c.take(1); b != nil {
		if b[0] > 1 {
			c.failf(ErrMalformed, "boolean byte %d", b[0])
		}
		*v = b[0] == 1
	}
}

// u32Int moves a non-negative int as a u32, and u64Int as a u64.
func (c *codec) u32Int(v *int, what string) {
	u := uint32(*v)
	c.u32(&u)
	c.intField(v, uint64(u), maxU32Int, what)
}

func (c *codec) u64Int(v *int, what string) {
	u := uint64(*v)
	c.u64(&u)
	c.intField(v, u, maxU64Int, what)
}

// intField checks an int field's value against its limit: the int itself
// when encoding (a negative one wraps far above every limit), the wire
// value u when decoding, which it then stores.
func (c *codec) intField(v *int, u, limit uint64, what string) {
	if !c.dec {
		u = uint64(*v)
	}
	if c.err == nil && u > limit {
		c.failf(ErrMalformed, "%s %d is out of range", what, int64(u))
	} else if c.dec && c.err == nil {
		*v = int(u)
	}
}

// count moves a slice length as a u32. When decoding it also checks that
// the bytes left can back that many elements of at least elemSize bytes.
// It returns the length, or 0 once the codec has failed.
func (c *codec) count(n, elemSize int, what string) int {
	u := uint32(n)
	c.u32(&u)
	if rem := len(c.buf) - c.pos; c.dec && c.err == nil && uint64(u) > uint64(rem/elemSize) {
		c.failf(ErrTruncated, "%s count %d, payload has %d bytes", what, u, rem)
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// table checks a table whose length n the layout implies rather than
// stores: encoding requires have == n, decoding requires the bytes left to
// back n elements of at least elemSize bytes. Divide rather than multiply,
// so a hostile n cannot overflow the guard into an allocation.
func (c *codec) table(have, n, elemSize int, what string) bool {
	switch rem := len(c.buf) - c.pos; {
	case !c.dec && have != n:
		c.failf(ErrMalformed, "%s has %d entries, want %d", what, have, n)
	case c.dec && n > rem/elemSize:
		c.failf(ErrTruncated, "%s of %d entries, payload has %d bytes", what, n, rem)
	}
	return c.err == nil
}

// points moves a counted point slice in one loop per direction.
func (c *codec) points(ps *[]geom.Point, what string) {
	n := c.count(len(*ps), 16, what)
	if n == 0 {
		return
	}
	if !c.dec {
		if b := c.next(16 * n); b != nil {
			for i, p := range *ps {
				binary.LittleEndian.PutUint64(b[16*i:], math.Float64bits(p.X))
				binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(p.Y))
			}
		}
		return
	}
	b, out := c.take(16*n), make([]geom.Point, n)
	for i := range out {
		out[i].X = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
		out[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
	}
	*ps = out
}

// floats moves a counted float slice in one loop per direction.
func (c *codec) floats(fs *[]float64, what string) {
	n := c.count(len(*fs), 8, what)
	if n == 0 {
		return
	}
	if !c.dec {
		if b := c.next(8 * n); b != nil {
			for i, f := range *fs {
				binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
			}
		}
		return
	}
	b, out := c.take(8*n), make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*fs = out
}
