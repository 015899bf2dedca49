// Package trace provides the campus mobility-trace substrate for the
// paper's trace-driven experiment (§5.C).
//
// The paper replays the Dartmouth Campus data set v1.3 ("syslog" portion):
// sequences of AP associations per wireless card, ~500 APs with 50 of them
// in a rectangular region used as location landmarks, segments intercepted
// and compressed in time by a factor of 100. That dataset is not
// redistributable here, so this package supplies (a) a parser for a
// documented syslog-like record format — real traces can be converted and
// replayed unchanged — and (b) a synthetic generator that produces the same
// statistical object: per-user asynchronous AP-association sequences with
// heavy-tailed dwell times over a campus AP layout.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// AP is a wireless access point with a known campus position.
type AP struct {
	ID  string
	Pos geom.Point
}

// Record is one association event: user associated with AP at Time.
type Record struct {
	Time float64 // seconds since the trace epoch
	User string
	AP   string
}

// Campus is a set of APs over a campus area.
type Campus struct {
	Area geom.Rect
	APs  []AP
}

// GenerateCampus scatters numAPs access points uniformly over area.
func GenerateCampus(area geom.Rect, numAPs int, src *rng.Source) (Campus, error) {
	if numAPs <= 0 {
		return Campus{}, fmt.Errorf("trace: numAPs must be positive, got %d", numAPs)
	}
	if area.Width() <= 0 || area.Height() <= 0 {
		return Campus{}, fmt.Errorf("trace: degenerate area %v", area)
	}
	aps := make([]AP, numAPs)
	for i := range aps {
		aps[i] = AP{ID: fmt.Sprintf("AP%03d", i), Pos: src.InRect(area)}
	}
	return Campus{Area: area, APs: aps}, nil
}

// Landmarks returns up to max APs inside region — the subset the paper uses
// as location references (50 APs in a rectangular region).
func (c Campus) Landmarks(region geom.Rect, max int) []AP {
	out := make([]AP, 0, max)
	for _, ap := range c.APs {
		if region.Contains(ap.Pos) {
			out = append(out, ap)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// apIndex maps AP IDs to positions.
func apIndex(aps []AP) map[string]geom.Point {
	m := make(map[string]geom.Point, len(aps))
	for _, ap := range aps {
		m[ap.ID] = ap.Pos
	}
	return m
}

// GenConfig configures synthetic trace generation.
type GenConfig struct {
	NumUsers int
	Duration float64 // trace length in seconds
	// MinDwell is the shortest dwell time at an AP (zero means one
	// minute). Dwell times are bounded-Pareto distributed in
	// [MinDwell, maxDwell] with shape dwellShape; heavy-tailed dwelling is
	// the dominant feature of campus WLAN traces.
	MinDwell float64
}

// The dwell-time bound and shape of generated traces. Users roam between
// nearby APs: the next AP lies within a tenth of the area diagonal.
const (
	maxDwell   = 6 * 3600 // six hours
	dwellShape = 1.2
)

func (g GenConfig) withDefaults() GenConfig {
	if g.MinDwell <= 0 {
		g.MinDwell = 60 // one minute
	}
	return g
}

// Generate produces association records for the campus, sorted by time.
// Each user starts at a random AP at a random offset and roams between
// nearby APs with heavy-tailed dwell times.
func Generate(c Campus, cfg GenConfig, src *rng.Source) ([]Record, error) {
	if cfg.NumUsers <= 0 {
		return nil, fmt.Errorf("trace: NumUsers must be positive, got %d", cfg.NumUsers)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: Duration must be positive, got %v", cfg.Duration)
	}
	if len(c.APs) == 0 {
		return nil, fmt.Errorf("trace: campus has no APs")
	}
	cfg = cfg.withDefaults()
	hopRadius := c.Area.Diameter() / 10

	var records []Record
	for u := 0; u < cfg.NumUsers; u++ {
		user := fmt.Sprintf("user%04d", u)
		cur := src.IntN(len(c.APs))
		t := src.Uniform(0, cfg.MinDwell*10)
		for t < cfg.Duration {
			records = append(records, Record{Time: t, User: user, AP: c.APs[cur].ID})
			t += src.Pareto(cfg.MinDwell, maxDwell, dwellShape)
			cur = c.nextAP(cur, hopRadius, src)
		}
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].Time != records[j].Time {
			return records[i].Time < records[j].Time
		}
		return records[i].User < records[j].User
	})
	return records, nil
}

// nextAP picks a roaming destination within hopRadius of the current AP,
// falling back to any AP when none is close enough.
func (c Campus) nextAP(cur int, hopRadius float64, src *rng.Source) int {
	var near []int
	for i, ap := range c.APs {
		if i != cur && ap.Pos.Dist(c.APs[cur].Pos) <= hopRadius {
			near = append(near, i)
		}
	}
	if len(near) == 0 {
		return src.IntN(len(c.APs))
	}
	return near[src.IntN(len(near))]
}

// Write emits records in the repository's syslog-like line format:
//
//	<time>\t<user>\t<ap>
//
// with time printed as a decimal number of seconds.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n",
			strconv.FormatFloat(r.Time, 'f', -1, 64), r.User, r.AP); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	return bw.Flush()
}

// Parse reads records in the format emitted by Write. Blank lines and lines
// starting with '#' are ignored.
func Parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp %q: %v", lineNo, fields[0], err)
		}
		out = append(out, Record{Time: t, User: fields[1], AP: fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return out, nil
}

// Compress divides every timestamp by factor — the paper compresses the
// Dartmouth timeline by a factor of 100 to obtain compact trajectories.
func Compress(records []Record, factor float64) ([]Record, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: compression factor must be positive, got %v", factor)
	}
	out := make([]Record, len(records))
	for i, r := range records {
		out[i] = Record{Time: r.Time / factor, User: r.User, AP: r.AP}
	}
	return out, nil
}

// Window keeps records with t0 <= Time < t1, shifting times so the window
// starts at zero — the paper's "intercept a segment from each record".
func Window(records []Record, t0, t1 float64) []Record {
	var out []Record
	for _, r := range records {
		if r.Time >= t0 && r.Time < t1 {
			out = append(out, Record{Time: r.Time - t0, User: r.User, AP: r.AP})
		}
	}
	return out
}

// TimedPath is one user's mobility path: position samples at association
// times, interpolated linearly in between (the paper concatenates AP
// locations into a mobility path).
type TimedPath struct {
	Times  []float64
	Points []geom.Point
}

// At returns the interpolated position at time t, clamping outside the
// recorded span.
func (tp TimedPath) At(t float64) geom.Point {
	n := len(tp.Times)
	if n == 0 {
		return geom.Point{}
	}
	if t <= tp.Times[0] {
		return tp.Points[0]
	}
	if t >= tp.Times[n-1] {
		return tp.Points[n-1]
	}
	i := sort.SearchFloat64s(tp.Times, t)
	// Times[i-1] < t <= Times[i] after the boundary checks above.
	t0, t1 := tp.Times[i-1], tp.Times[i]
	if t1 == t0 {
		return tp.Points[i]
	}
	return geom.Lerp(tp.Points[i-1], tp.Points[i], (t-t0)/(t1-t0))
}

// Paths groups records by user and converts each sequence into a TimedPath
// using the AP positions in aps. Records referencing unknown APs are
// skipped. Each user's collection times are exactly its association times —
// the asynchronous schedule the tracker consumes.
func Paths(records []Record, aps []AP) map[string]TimedPath {
	idx := apIndex(aps)
	grouped := make(map[string]*TimedPath)
	for _, r := range records {
		pos, ok := idx[r.AP]
		if !ok {
			continue
		}
		tp := grouped[r.User]
		if tp == nil {
			tp = &TimedPath{}
			grouped[r.User] = tp
		}
		tp.Times = append(tp.Times, r.Time)
		tp.Points = append(tp.Points, pos)
	}
	out := make(map[string]TimedPath, len(grouped))
	for user, tp := range grouped {
		out[user] = *tp
	}
	return out
}

// MapRect returns a copy of tp with positions affinely mapped from the
// rectangle from onto the rectangle to — the paper divides its AP landmark
// region into a 30 by 30 grid hosting the simulated sensor field.
func (tp TimedPath) MapRect(from, to geom.Rect) TimedPath {
	sx := to.Width() / from.Width()
	sy := to.Height() / from.Height()
	out := TimedPath{
		Times:  append([]float64(nil), tp.Times...),
		Points: make([]geom.Point, len(tp.Points)),
	}
	for i, p := range tp.Points {
		out.Points[i] = geom.Pt(
			to.Min.X+(p.X-from.Min.X)*sx,
			to.Min.Y+(p.Y-from.Min.Y)*sy,
		)
	}
	return out
}
