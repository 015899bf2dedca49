package fingerprint

import (
	"math"
	"sync"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
)

func testModel(t *testing.T) *fluxmodel.Model {
	t.Helper()
	m, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testPoints(n int, seed uint64, field geom.Rect) []geom.Point {
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.InRect(field)
	}
	return pts
}

// TestDBColumnsMatchKernelVector pins each database column bit-for-bit to
// the per-sink kernel path the exact evaluator uses: the coarse stage
// scores the very signatures the fine stage would compute.
func TestDBColumnsMatchKernelVector(t *testing.T) {
	model := testModel(t)
	pts := testPoints(37, 5, model.Field())
	db, err := NewDB(model, pts, CoarseConfig{GridRes: 9}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Cells() != 81 || db.Res() != 9 || db.NumSamples() != len(pts) {
		t.Fatalf("db shape: cells=%d res=%d n=%d", db.Cells(), db.Res(), db.NumSamples())
	}
	col := make([]float64, len(pts))
	for c := 0; c < db.Cells(); c++ {
		model.KernelVectorInto(db.Center(c), pts, col)
		got := db.Column(c)
		for i, want := range col {
			if got[i] != want {
				t.Fatalf("cell %d sample %d: db %v != kernel %v", c, i, got[i], want)
			}
		}
	}
}

// TestDBWorkerInvariance: the database is byte-identical at any build
// worker count.
func TestDBWorkerInvariance(t *testing.T) {
	model := testModel(t)
	pts := testPoints(20, 9, model.Field())
	base, err := NewDB(model, pts, CoarseConfig{GridRes: 16}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, 0} {
		db, err := NewDB(model, pts, CoarseConfig{GridRes: 16}, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range db.cols {
			if v != base.cols[i] {
				t.Fatalf("workers=%d: column arena differs at %d", w, i)
			}
		}
	}
}

// TestCellOf checks interior points map to their geometric cell and that
// points on exact cell boundaries (equidistant centers) resolve to the
// lowest cell index, the tie-break the shortlist determinism rests on.
func TestCellOf(t *testing.T) {
	model := testModel(t)
	pts := testPoints(10, 3, model.Field())
	db, err := NewDB(model, pts, CoarseConfig{GridRes: 3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3x3 grid over [0,30]²: cells are 10 units, centers at 5, 15, 25.
	if got := db.CellOf(geom.Pt(1, 1)); got != 0 {
		t.Fatalf("corner cell: got %d, want 0", got)
	}
	if got := db.CellOf(geom.Pt(16, 22)); got != 7 {
		t.Fatalf("cell (1,2): got %d, want 7", got)
	}
	// (10, 5) is equidistant from centers 0 and 1 → lowest index wins.
	if got := db.CellOf(geom.Pt(10, 5)); got != 0 {
		t.Fatalf("edge tie: got %d, want 0", got)
	}
	// (15, 15) is equidistant from centers 4 and its three neighbors
	// 5, 7, 8 → lowest index wins.
	if got := db.CellOf(geom.Pt(20, 20)); got != 4 {
		t.Fatalf("center tie: got %d, want 4", got)
	}
	// Outside the field clamps to the nearest boundary cell.
	if got := db.CellOf(geom.Pt(-5, 40)); got != 6 {
		t.Fatalf("outside: got %d, want 6", got)
	}
}

// TestNewDBErrorsAndDefaults covers the constructor contract.
func TestNewDBErrorsAndDefaults(t *testing.T) {
	model := testModel(t)
	pts := testPoints(4, 1, model.Field())
	if _, err := NewDB(nil, pts, CoarseConfig{}, 1, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewDB(model, nil, CoarseConfig{}, 1, nil); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := NewDB(model, pts, CoarseConfig{GridRes: MaxGridRes + 1}, 1, nil); err == nil {
		t.Fatal("oversized grid accepted")
	}
	m := obs.New(1)
	db, err := NewDB(model, pts, CoarseConfig{}, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	if db.Res() != DefaultGridRes || db.Cells() != DefaultGridRes*DefaultGridRes {
		t.Fatalf("defaults not applied: res=%d", db.Res())
	}
	if got := m.Counter("fingerprint.db.builds").Value(); got != 1 {
		t.Fatalf("builds counter = %d, want 1", got)
	}
	if got := m.Counter("fingerprint.db.cells").Value(); got != uint64(db.Cells()) {
		t.Fatalf("cells counter = %d, want %d", got, db.Cells())
	}
	cfg := CoarseConfig{}.WithDefaults()
	if cfg.GridRes != DefaultGridRes || cfg.TopK != DefaultTopK {
		t.Fatalf("WithDefaults = %+v", cfg)
	}
}

// bruteCellOf is the linear-scan oracle of CellOf: the cell with the least
// squared center distance, ties to the lowest index.
func bruteCellOf(db *DB, p geom.Point) int {
	best, bestD := 0, p.Dist2(db.Center(0))
	for c := 1; c < db.Cells(); c++ {
		if d := p.Dist2(db.Center(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// cellTestBounds is a non-square, offset grid rectangle inside the 30×30
// test field, so CellOf's arithmetic sees a nonzero origin and unequal
// cell sides.
var cellTestBounds = geom.Rect{Min: geom.Pt(2.5, 4), Max: geom.Pt(29, 21.7)}

var cellDBs struct {
	mu  sync.Mutex
	dbs map[int]*DB
}

// cellDB returns the database over cellTestBounds at resolution res,
// built once per test binary.
func cellDB(t testing.TB, res int) *DB {
	t.Helper()
	cellDBs.mu.Lock()
	defer cellDBs.mu.Unlock()
	if db, ok := cellDBs.dbs[res]; ok {
		return db
	}
	model, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBOver(model, cellTestBounds, []geom.Point{geom.Pt(7, 9)}, CoarseConfig{GridRes: res}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cellDBs.dbs == nil {
		cellDBs.dbs = make(map[int]*DB)
	}
	cellDBs.dbs[res] = db
	return db
}

// cellProbe maps a raw coordinate u (in cell units from the grid origin)
// to a position along one axis of length span over res cells: as is, or
// snapped to the nearest cell edge or cell center, where CellOf's distance
// ties live.
func cellProbe(u float64, snap uint8, origin, span float64, res int) float64 {
	w := span / float64(res)
	switch snap % 3 {
	case 1:
		return origin + math.Round(u)*w
	case 2:
		return origin + (math.Floor(u)+0.5)*w
	}
	return origin + u*w
}

// TestCellOfMatchesBruteForce compares CellOf with the linear scan at
// resolutions 1–40 on 400k points: random, on cell edges, on grid corners,
// on cell centers, and up to four grid widths outside the bounds.
func TestCellOfMatchesBruteForce(t *testing.T) {
	src := rng.New(17)
	b := cellTestBounds
	for res := 1; res <= 40; res++ {
		db := cellDB(t, res)
		for n := 0; n < 10000; n++ {
			r := float64(res)
			ux, uy := src.Float64()*9*r-4*r, src.Float64()*9*r-4*r
			if n%2 == 0 { // inside the bounds
				ux, uy = src.Float64()*r, src.Float64()*r
			}
			p := geom.Pt(
				cellProbe(ux, uint8(n/2), b.Min.X, b.Width(), res),
				cellProbe(uy, uint8(n/6), b.Min.Y, b.Height(), res),
			)
			if got, want := db.CellOf(p), bruteCellOf(db, p); got != want {
				t.Fatalf("res %d: CellOf(%v) = %d, brute force %d", res, p, got, want)
			}
		}
	}
}

// TestCellOfNonFinite: a non-finite coordinate, or one so large that the
// squared distance overflows, gives a valid cell: the lowest-index
// neighbor of the clamped cell, since every distance then compares as NaN
// or +Inf. At res 7 the cells are 26.5/7 wide and 17.7/7 high.
func TestCellOfNonFinite(t *testing.T) {
	db := cellDB(t, 7)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(nan, nan), 0},
		{geom.Pt(nan, 10), 7},    // cell (0, 2): rows 1–3, columns 0–1
		{geom.Pt(inf, 12), 19},   // cell (6, 3): rows 2–4, columns 5–6
		{geom.Pt(15, nan), 2},    // cell (3, 0): rows 0–1, columns 2–4
		{geom.Pt(-inf, -inf), 0}, // cell (0, 0)
		{geom.Pt(inf, inf), 40},  // cell (6, 6): rows 5–6, columns 5–6
		{geom.Pt(1e300, -1e300), 5},
	} {
		got := db.CellOf(tc.p)
		if got < 0 || got >= db.Cells() {
			t.Fatalf("CellOf(%v) = %d, outside [0, %d)", tc.p, got, db.Cells())
		}
		if got != tc.want {
			t.Errorf("CellOf(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// FuzzCellOf compares CellOf with the linear scan on fuzzed positions in
// cell units from the grid origin, up to 10⁴ grid widths outside the
// bounds, optionally snapped to cell edges or centers per axis.
func FuzzCellOf(f *testing.F) {
	f.Add(uint8(3), 1.0, 1.0, uint8(1), uint8(1))
	f.Add(uint8(1), -2.5, 7.0, uint8(0), uint8(2))
	f.Add(uint8(24), 12.0, 23.9, uint8(2), uint8(0))
	f.Add(uint8(40), 40.0, 0.0, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, resRaw uint8, ux, uy float64, snapX, snapY uint8) {
		res := int(resRaw%40) + 1
		lim := 1e4 * float64(res)
		if !(math.Abs(ux) <= lim && math.Abs(uy) <= lim) {
			return // non-finite and huge inputs: TestCellOfNonFinite
		}
		db := cellDB(t, res)
		b := db.Bounds()
		p := geom.Pt(
			cellProbe(ux, snapX, b.Min.X, b.Width(), res),
			cellProbe(uy, snapY, b.Min.Y, b.Height(), res),
		)
		if got, want := db.CellOf(p), bruteCellOf(db, p); got != want {
			t.Fatalf("res %d: CellOf(%v) = %d, brute force %d", res, p, got, want)
		}
	})
}
