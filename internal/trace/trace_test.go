package trace

import (
	"sort"
	"strings"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

func testCampus(t testing.TB, numAPs int, seed uint64) Campus {
	t.Helper()
	c, err := GenerateCampus(geom.Square(1000), numAPs, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateCampus(t *testing.T) {
	c := testCampus(t, 500, 1)
	if len(c.APs) != 500 {
		t.Fatalf("got %d APs, want 500", len(c.APs))
	}
	seen := map[string]bool{}
	for _, ap := range c.APs {
		if !c.Area.Contains(ap.Pos) {
			t.Errorf("AP %s at %v outside area", ap.ID, ap.Pos)
		}
		if seen[ap.ID] {
			t.Errorf("duplicate AP ID %s", ap.ID)
		}
		seen[ap.ID] = true
	}
	if _, err := GenerateCampus(geom.Square(10), 0, rng.New(1)); err == nil {
		t.Error("zero APs must error")
	}
	if _, err := GenerateCampus(geom.Rect{}, 5, rng.New(1)); err == nil {
		t.Error("degenerate area must error")
	}
}

func TestLandmarks(t *testing.T) {
	c := testCampus(t, 500, 2)
	region := geom.NewRect(geom.Pt(200, 200), geom.Pt(700, 700))
	lm := c.Landmarks(region, 50)
	if len(lm) != 50 {
		t.Fatalf("got %d landmarks, want 50", len(lm))
	}
	for _, ap := range lm {
		if !region.Contains(ap.Pos) {
			t.Errorf("landmark %s at %v outside region", ap.ID, ap.Pos)
		}
	}
}

func TestGenerateRecords(t *testing.T) {
	c := testCampus(t, 100, 3)
	recs, err := Generate(c, GenConfig{NumUsers: 20, Duration: 100000}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 20 {
		t.Fatalf("only %d records generated", len(recs))
	}
	// Sorted by time.
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time }) {
		// Equal times are allowed; check non-decreasing explicitly.
		for i := 1; i < len(recs); i++ {
			if recs[i].Time < recs[i-1].Time {
				t.Fatal("records not sorted by time")
			}
		}
	}
	// All 20 users appear.
	users := map[string]bool{}
	for _, r := range recs {
		users[r.User] = true
		if r.Time < 0 || r.Time >= 100000+600 {
			t.Errorf("record time %v outside range", r.Time)
		}
	}
	if len(users) != 20 {
		t.Errorf("got %d distinct users, want 20", len(users))
	}
}

func TestGenerateValidation(t *testing.T) {
	c := testCampus(t, 10, 5)
	if _, err := Generate(c, GenConfig{NumUsers: 0, Duration: 100}, rng.New(1)); err == nil {
		t.Error("zero users must error")
	}
	if _, err := Generate(c, GenConfig{NumUsers: 1, Duration: 0}, rng.New(1)); err == nil {
		t.Error("zero duration must error")
	}
	if _, err := Generate(Campus{Area: geom.Square(10)}, GenConfig{NumUsers: 1, Duration: 10}, rng.New(1)); err == nil {
		t.Error("campus without APs must error")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	c := testCampus(t, 50, 6)
	recs, err := Generate(c, GenConfig{NumUsers: 5, Duration: 50000}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, recs); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(parsed), len(recs))
	}
	for i := range recs {
		if parsed[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, parsed[i], recs[i])
		}
	}
}

func TestParseCommentsAndErrors(t *testing.T) {
	input := "# header comment\n\n100.5\tuserA\tAP001\n"
	recs, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].User != "userA" || recs[0].Time != 100.5 {
		t.Fatalf("unexpected parse result: %+v", recs)
	}
	if _, err := Parse(strings.NewReader("1 2\n")); err == nil {
		t.Error("two-field line must error")
	}
	if _, err := Parse(strings.NewReader("notanumber u a\n")); err == nil {
		t.Error("bad timestamp must error")
	}
}

func TestCompress(t *testing.T) {
	recs := []Record{{Time: 200, User: "u", AP: "a"}, {Time: 400, User: "u", AP: "b"}}
	out, err := Compress(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Time != 2 || out[1].Time != 4 {
		t.Errorf("compressed times = %v, %v; want 2, 4", out[0].Time, out[1].Time)
	}
	if recs[0].Time != 200 {
		t.Error("Compress mutated its input")
	}
	if _, err := Compress(recs, 0); err == nil {
		t.Error("zero factor must error")
	}
}

func TestWindow(t *testing.T) {
	recs := []Record{
		{Time: 5, User: "u", AP: "a"},
		{Time: 15, User: "u", AP: "b"},
		{Time: 25, User: "u", AP: "c"},
	}
	out := Window(recs, 10, 20)
	if len(out) != 1 || out[0].Time != 5 || out[0].AP != "b" {
		t.Fatalf("Window result = %+v", out)
	}
}

func TestTimedPathAt(t *testing.T) {
	tp := TimedPath{
		Times:  []float64{0, 10, 20},
		Points: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10)},
	}
	tests := []struct {
		t    float64
		want geom.Point
	}{
		{-5, geom.Pt(0, 0)},
		{0, geom.Pt(0, 0)},
		{5, geom.Pt(5, 0)},
		{10, geom.Pt(10, 0)},
		{15, geom.Pt(10, 5)},
		{20, geom.Pt(10, 10)},
		{99, geom.Pt(10, 10)},
	}
	for _, tt := range tests {
		if got := tp.At(tt.t); got.Dist(tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if got := (TimedPath{}).At(5); got != (geom.Point{}) {
		t.Errorf("empty path At = %v, want zero point", got)
	}
}

func TestPaths(t *testing.T) {
	aps := []AP{
		{ID: "a", Pos: geom.Pt(0, 0)},
		{ID: "b", Pos: geom.Pt(10, 0)},
	}
	recs := []Record{
		{Time: 0, User: "u1", AP: "a"},
		{Time: 10, User: "u1", AP: "b"},
		{Time: 5, User: "u2", AP: "b"},
		{Time: 7, User: "u2", AP: "unknown"}, // skipped
	}
	paths := Paths(recs, aps)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	u1 := paths["u1"]
	if got := u1.At(5); got.Dist(geom.Pt(5, 0)) > 1e-12 {
		t.Errorf("u1.At(5) = %v, want (5, 0)", got)
	}
	u2 := paths["u2"]
	if len(u2.Times) != 1 {
		t.Errorf("u2 has %d samples, want 1 (unknown AP skipped)", len(u2.Times))
	}
}

func TestMapRect(t *testing.T) {
	tp := TimedPath{
		Times:  []float64{0, 1},
		Points: []geom.Point{geom.Pt(200, 200), geom.Pt(700, 700)},
	}
	from := geom.NewRect(geom.Pt(200, 200), geom.Pt(700, 700))
	to := geom.Square(30)
	mapped := tp.MapRect(from, to)
	if got := mapped.Points[0]; got.Dist(geom.Pt(0, 0)) > 1e-9 {
		t.Errorf("mapped start = %v, want (0,0)", got)
	}
	if got := mapped.Points[1]; got.Dist(geom.Pt(30, 30)) > 1e-9 {
		t.Errorf("mapped end = %v, want (30,30)", got)
	}
	// Original untouched.
	if tp.Points[0] != geom.Pt(200, 200) {
		t.Error("MapRect mutated its input")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCampus(t, 50, 8)
	a, err := Generate(c, GenConfig{NumUsers: 3, Duration: 20000}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, GenConfig{NumUsers: 3, Duration: 20000}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic record count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across equal seeds", i)
		}
	}
}
