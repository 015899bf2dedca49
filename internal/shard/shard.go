// Package shard scales the SMC tracker past a single field: the deployment
// is split into an R×C grid of tiles, each tile owning its own sensor
// subset, collection sink, fingerprint database, and smc.Tracker with a
// deterministic splitmix64 RNG substream derived from (seed, tile index). A
// Field coordinator steps all tiles concurrently over internal/par, routes
// each round's flux observation to the owning tiles (plus a configurable
// halo so users near seams are seen by both neighbors), and migrates a
// user's SMC sample set to the neighboring tile when its estimate crosses a
// tile boundary.
//
// The scaling argument is work reduction, not just parallelism: a tile
// searches only its owned users (≈K/tiles of them) against only its own
// sensors (≈n/tiles of them), so the per-round candidate-evaluation work —
// kernel columns, Gram updates, NNLS solves whose cost grows with the joint
// user count k — drops superlinearly with the tile count even on one core.
//
// Determinism contract (DESIGN.md §6.6): tiles step concurrently but write
// only index-disjoint state; results merge serially in ascending tile
// order; the handoff pass runs serially in (round, tile, user) order after
// every tile has finished, so no tile's step observes a same-round
// migration. Every Monte Carlo draw comes from a (tile, user) substream
// fixed at construction. Output is therefore byte-identical at any
// Config.Tracker.Workers value, and a 1×1 grid — whose single tile keeps the
// coordinator seed, the full sensor set in original order, and bounds equal
// to the field — reproduces the unsharded tracker byte for byte.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/par"
	"fluxtrack/internal/smc"
)

// Grid describes how a field is tiled: Rows×Cols tiles, each inflated by
// Halo on every interior side when sensing. The zero value (0×0) is the
// "unsharded" marker used by config plumbing; a usable grid has Rows and
// Cols at least 1 and a non-negative finite Halo.
type Grid struct {
	Rows, Cols int
	// Halo inflates each tile's sensing/hypothesis bounds (not its owned
	// ground) by this distance on every side, clipped to the field: sensors
	// within the halo of a seam report to both neighbors, and a tile may
	// hypothesize positions slightly past its seam, which softens the
	// accuracy penalty for users walking the seam at the cost of
	// proportionally more sensors per tile.
	Halo float64
}

// Tiles returns Rows×Cols, or 0 when either dimension is unset — the
// unsharded marker.
func (g Grid) Tiles() int {
	if g.Rows <= 0 || g.Cols <= 0 {
		return 0
	}
	return g.Rows * g.Cols
}

// String formats the grid as "RxC".
func (g Grid) String() string {
	return fmt.Sprintf("%dx%d", g.Rows, g.Cols)
}

// ParseGrid parses "RxC" (e.g. "2x2", "1x4") into a Grid with zero halo.
func ParseGrid(s string) (Grid, error) {
	lo, hi, ok := strings.Cut(strings.TrimSpace(s), "x")
	if !ok {
		return Grid{}, fmt.Errorf("shard: grid %q is not RxC", s)
	}
	r, err1 := strconv.Atoi(lo)
	c, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || r < 1 || c < 1 || r > math.MaxInt/c {
		return Grid{}, fmt.Errorf("shard: grid %q is not RxC with positive dimensions and an int tile count", s)
	}
	return Grid{Rows: r, Cols: c}, nil
}

// TileOf maps a position to the tile owning it under the plain (halo-free)
// rect partition of field. The mapping is a pure function: positions
// exactly on an interior seam belong to the tile on the seam's upper/right
// side, positions on the field's outer max edges clamp into the last
// row/column, and corner points — equidistant from four tiles — resolve by
// the same two rules. Out-of-field positions clamp to the nearest tile.
func (g Grid) TileOf(field geom.Rect, p geom.Point) int {
	ix := tileCoord(p.X, field.Min.X, field.Width(), g.Cols)
	iy := tileCoord(p.Y, field.Min.Y, field.Height(), g.Rows)
	return iy*g.Cols + ix
}

func tileCoord(v, lo, extent float64, n int) int {
	i := int(math.Floor((v - lo) / extent * float64(n)))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// tileSeed derives tile i's RNG substream seed with the same splitmix64
// finalizer the tracker uses for per-user substreams, so neighboring tiles
// land in independent stream regions. The degenerate single-tile grid IS
// the unsharded tracker, so it keeps the coordinator seed unchanged — that
// passthrough is one link in the 1×1 byte-identity chain.
func tileSeed(seed uint64, i, tiles int) uint64 {
	if tiles == 1 {
		return seed
	}
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Config configures a sharded tracking Field.
type Config struct {
	// Tracker describes the deployment (Model, the global SamplePoints, and
	// NumUsers across the whole field) and is every tile's tracker template;
	// each tile overrides only SamplePoints, Bounds and DBCache (shared by
	// all tiles; nil creates a private cache when Coarse is enabled). Its
	// Workers bounds both how many tiles step at once — packed
	// longest-processing-time first by a deterministic cost estimate (owned
	// users plus last round's NNLS work), so one hot tile does not serialize
	// the round — and each tile's step; output is byte-identical at any
	// value. Its Metrics and Trace also receive the coordinator's shard.*
	// instruments and one tile-scoped span per stepped tile per round.
	Tracker smc.Config
	Grid    Grid

	// InitialPositions, when non-nil (length NumUsers), seeds each user's
	// owning tile from their starting position; nil assigns users to tiles
	// round-robin and lets bootstrap plus handoff sort them out.
	InitialPositions []geom.Point

	// TileCapacity caps how many users one tile may own (0 = unlimited).
	// When a migration would overflow the destination, the user is
	// admitted instead by the first tile — in the destination's
	// deterministic neighbor order (ascending center distance, index
	// tie-break) — that has room and whose halo bounds contain the user's
	// estimate; if none qualifies the user stays on its source tile and
	// the round counts a spill (shard.balance.spills). Initial assignment
	// applies the same admission. NumUsers must not exceed
	// TileCapacity×tiles.
	TileCapacity int

	// PerTileMetrics registers per-tile instruments on top of the
	// aggregated shard.* set: shard.tile.NNN.users (owned-user count per
	// round, a deterministic queue-depth gauge) and shard.tile.NNN.step_ms
	// (that tile's step-latency histogram). Off by default — a 32×32 grid
	// would register 2048 extra instruments.
	PerTileMetrics bool
}

// tile is one shard: its ground, sensors, and tracker, plus the per-round
// scratch the coordinator reuses.
type tile struct {
	index   int
	rect    geom.Rect // owned ground (plain partition)
	bounds  geom.Rect // rect + halo, clipped to the field
	sensors []int     // ascending global sensor indices within bounds
	sink    int       // global index of the tile's collection sensor
	seed    uint64
	tracker *smc.Tracker

	owned    []int // users owned this round, ascending (route-arena backed)
	readings []float64
	present  []bool
	age      []int

	// prevSolves/prevIters checkpoint the tile tracker's cumulative NNLS
	// work so the coordinator can charge each round's delta into the
	// tile's next cost estimate. Both are deterministic work counts.
	prevSolves, prevIters uint64

	// Per-round results, written by this tile's worker only;
	// res.Estimates[i] belongs to owned[i]. The next round's step reuses
	// res.Estimates as its buffer, so steady-state rounds allocate no
	// estimate arrays.
	res     smc.StepResult
	err     error
	stepped bool
	queueNs int64
	wallNs  int64

	// Per-tile instruments, bound only when Config.PerTileMetrics is set.
	usersGauge *obs.Counter
	stepHist   *obs.Histogram
}

// TileInfo is the read-only description of one tile.
type TileInfo struct {
	Index   int
	Rect    geom.Rect // owned ground
	Bounds  geom.Rect // halo-inflated sensing/hypothesis ground
	Sensors int       // sensors reporting to this tile
	Sink    int       // global sensor index of the tile's collection point
	Seed    uint64    // the tile's RNG substream seed
}

// fieldMetrics caches the coordinator's observability handles.
type fieldMetrics struct {
	m            *obs.Metrics
	shard        int
	steps        *obs.Counter   // shard.step.count
	handoffs     *obs.Counter   // shard.step.handoffs
	tilesStepped *obs.Counter   // shard.step.tiles_stepped
	spills       *obs.Counter   // shard.balance.spills
	maxTile      *obs.Counter   // shard.balance.max_tile_users
	queue        *obs.Histogram // shard.tile.queue_ms
	wall         *obs.Histogram // shard.tile.step_ms
	tileUsers    *obs.Histogram // shard.tile.users (per-round owned counts)
}

func (fm *fieldMetrics) bind(m *obs.Metrics, seed uint64) {
	if m == nil {
		return
	}
	*fm = fieldMetrics{
		m:            m,
		shard:        int(seed),
		steps:        m.Counter("shard.step.count"),
		handoffs:     m.Counter("shard.step.handoffs"),
		tilesStepped: m.Counter("shard.step.tiles_stepped"),
		spills:       m.Counter("shard.balance.spills"),
		maxTile:      m.Counter("shard.balance.max_tile_users"),
		queue:        m.Histogram("shard.tile.queue_ms", obs.DurationBucketsMs),
		wall:         m.Histogram("shard.tile.step_ms", obs.DurationBucketsMs),
		tileUsers:    m.Histogram("shard.tile.users", obs.CountBuckets),
	}
}

// Field coordinates the tiles of a sharded deployment. Like smc.Tracker it
// is not safe for concurrent use by multiple goroutines, but each round
// fans the tiles out over Config.Tracker.Workers internally.
type Field struct {
	cfg      Config
	field    geom.Rect
	seed     uint64
	tiles    []*tile
	owner    []int // user -> owning tile
	lastEst  []smc.Estimate
	steps    int
	handoffs int
	spills   int
	met      fieldMetrics
	// lastT is the time of the last accepted round (−Inf before the first);
	// StepRound rejects any round not strictly later before a tile sees it.
	lastT float64

	handIn  []int // per-tile migrations in, reused across rounds
	handOut []int // per-tile migrations out

	// Counting-sort routing state: one pass over owner fills routeArena
	// with every tile's owned users in ascending order, and each tile's
	// owned slice aliases its contiguous segment — zero steady-state
	// allocations regardless of how users migrate between rounds.
	routeNext  []int
	routeArena []int
	load       []int // users currently owned per tile (capacity accounting)

	// LPT scheduling state: per-tile cost estimates and the reusable
	// worker plan (see Config.Tracker.Workers).
	costs []float64
	plan  [][]int

	// neighbors[d] lists every other tile in ascending distance from tile
	// d's center (index tie-break) — the deterministic admission scan
	// order when d is full. Built only when TileCapacity > 0.
	neighbors [][]int

	// lastMax/lastMean capture the tile-load imbalance of the most recent
	// round's routing (see Imbalance).
	lastMax  int
	lastMean float64
}

// New builds a sharded Field over cfg's deployment; seed fixes every tile's
// (and thereby every user's) RNG substream.
func New(cfg Config, seed uint64) (*Field, error) {
	tc := cfg.Tracker
	if tc.Model == nil {
		return nil, errors.New("shard: nil model")
	}
	if len(tc.SamplePoints) == 0 {
		return nil, errors.New("shard: no sampling points")
	}
	if tc.NumUsers <= 0 {
		return nil, fmt.Errorf("shard: NumUsers must be positive, got %d", tc.NumUsers)
	}
	// Every tile needs a sensor: reject a larger grid, per dimension so the
	// product cannot overflow, before allocating any per-tile state.
	if g, n := cfg.Grid, len(tc.SamplePoints); g.Rows > n || g.Cols > n || g.Tiles() > n {
		return nil, fmt.Errorf("shard: grid %s has more tiles than the %d sensors", g, n)
	}
	tiles := cfg.Grid.Tiles()
	if tiles < 1 {
		return nil, fmt.Errorf("shard: grid %s has no tiles", cfg.Grid)
	}
	if cfg.Grid.Halo < 0 || math.IsNaN(cfg.Grid.Halo) || math.IsInf(cfg.Grid.Halo, 0) {
		return nil, fmt.Errorf("shard: halo %v must be finite and non-negative", cfg.Grid.Halo)
	}
	if cfg.InitialPositions != nil && len(cfg.InitialPositions) != tc.NumUsers {
		return nil, fmt.Errorf("shard: %d initial positions for %d users", len(cfg.InitialPositions), tc.NumUsers)
	}
	if cfg.TileCapacity < 0 {
		return nil, fmt.Errorf("shard: TileCapacity %d must be non-negative", cfg.TileCapacity)
	}
	// Compare per tile: TileCapacity×tiles can overflow int.
	if cfg.TileCapacity > 0 && cfg.TileCapacity < (tc.NumUsers+tiles-1)/tiles {
		return nil, fmt.Errorf("shard: %d users exceed TileCapacity %d × %d tiles",
			tc.NumUsers, cfg.TileCapacity, tiles)
	}
	if tc.DBCache == nil && tc.Coarse.Enabled {
		cfg.Tracker.DBCache = fingerprint.NewCache(0)
	}

	field := tc.Model.Field()
	f := &Field{
		cfg:        cfg,
		field:      field,
		seed:       seed,
		tiles:      make([]*tile, tiles),
		owner:      make([]int, tc.NumUsers),
		lastEst:    make([]smc.Estimate, tc.NumUsers),
		handIn:     make([]int, tiles),
		handOut:    make([]int, tiles),
		routeNext:  make([]int, tiles),
		routeArena: make([]int, tc.NumUsers),
		load:       make([]int, tiles),
		costs:      make([]float64, tiles),
		lastT:      math.Inf(-1),
	}
	for i := range f.tiles {
		tl, err := f.newTile(i, seed)
		if err != nil {
			return nil, err
		}
		f.tiles[i] = tl
	}
	if cfg.TileCapacity > 0 {
		f.buildNeighborOrder()
	}
	for j := range f.owner {
		want := j % tiles
		if cfg.InitialPositions != nil {
			want = cfg.Grid.TileOf(field, cfg.InitialPositions[j])
		}
		f.owner[j] = f.admit(want)
		f.load[f.owner[j]]++
		// Until a user's tile first steps, report what its tracker would:
		// the tile bounds center with zero confidence.
		c := f.tiles[f.owner[j]].bounds.Center()
		f.lastEst[j] = smc.Estimate{Mean: c, Best: c}
	}
	f.met.bind(tc.Metrics, seed)
	if cfg.PerTileMetrics && tc.Metrics != nil {
		for _, tl := range f.tiles {
			tl.usersGauge = tc.Metrics.Counter(fmt.Sprintf("shard.tile.%03d.users", tl.index))
			tl.stepHist = tc.Metrics.Histogram(fmt.Sprintf("shard.tile.%03d.step_ms", tl.index), obs.DurationBucketsMs)
		}
	}
	return f, nil
}

// buildNeighborOrder precomputes, for every tile d, the other tiles sorted
// by ascending distance between tile centers with index tie-breaks — the
// deterministic scan order of the capacity admission.
func (f *Field) buildNeighborOrder() {
	tiles := len(f.tiles)
	f.neighbors = make([][]int, tiles)
	for d := range f.tiles {
		order := make([]int, 0, tiles-1)
		for i := range f.tiles {
			if i != d {
				order = append(order, i)
			}
		}
		cd := f.tiles[d].rect.Center()
		sort.Slice(order, func(a, b int) bool {
			da := f.tiles[order[a]].rect.Center().Sub(cd).Norm()
			db := f.tiles[order[b]].rect.Center().Sub(cd).Norm()
			if da != db {
				return da < db
			}
			return order[a] < order[b]
		})
		f.neighbors[d] = order
	}
}

// admit places a new user wanting tile `want` under the capacity rule: the
// desired tile if it has room, else the nearest tile (in want's neighbor
// order) with room. Only called from New, where global capacity is already
// validated, so a slot always exists.
func (f *Field) admit(want int) int {
	capacity := f.cfg.TileCapacity
	if capacity <= 0 || f.load[want] < capacity {
		return want
	}
	for _, nb := range f.neighbors[want] {
		if f.load[nb] < capacity {
			return nb
		}
	}
	return want // unreachable: capacity×tiles ≥ NumUsers
}

// newTile carves tile i out of the field and builds its tracker.
func (f *Field) newTile(i int, seed uint64) (*tile, error) {
	g := f.cfg.Grid
	r, c := i/g.Cols, i%g.Cols
	rect := geom.Rect{
		Min: geom.Pt(tileEdge(f.field.Min.X, f.field.Max.X, c, g.Cols),
			tileEdge(f.field.Min.Y, f.field.Max.Y, r, g.Rows)),
		Max: geom.Pt(tileEdge(f.field.Min.X, f.field.Max.X, c+1, g.Cols),
			tileEdge(f.field.Min.Y, f.field.Max.Y, r+1, g.Rows)),
	}
	bounds := geom.Rect{
		Min: geom.Pt(math.Max(rect.Min.X-g.Halo, f.field.Min.X),
			math.Max(rect.Min.Y-g.Halo, f.field.Min.Y)),
		Max: geom.Pt(math.Min(rect.Max.X+g.Halo, f.field.Max.X),
			math.Min(rect.Max.Y+g.Halo, f.field.Max.Y)),
	}
	tl := &tile{index: i, rect: rect, bounds: bounds, seed: tileSeed(seed, i, g.Tiles())}
	var points []geom.Point
	for si, p := range f.cfg.Tracker.SamplePoints {
		if bounds.Contains(p) {
			tl.sensors = append(tl.sensors, si)
			points = append(points, p)
		}
	}
	if len(tl.sensors) == 0 {
		return nil, fmt.Errorf("shard: tile %d (%v) covers no sensors; use fewer tiles, a wider halo, or a denser vantage", i, bounds)
	}
	// The tile's sink: the covered sensor nearest the tile center, ties to
	// the lower global index — the deterministic collection point per-tile
	// routing would drain to.
	center := rect.Center()
	bestD := math.Inf(1)
	for k, si := range tl.sensors {
		if d := points[k].Sub(center).Norm(); d < bestD {
			bestD, tl.sink = d, si
		}
	}

	tcfg := f.cfg.Tracker
	tcfg.SamplePoints = points
	tcfg.Bounds = bounds
	tr, err := smc.New(tcfg, tl.seed)
	if err != nil {
		return nil, fmt.Errorf("shard: tile %d tracker: %w", i, err)
	}
	tl.tracker = tr
	tl.readings = make([]float64, len(tl.sensors))
	return tl, nil
}

// tileEdge returns the x (or y) coordinate of grid line k of n, pinning the
// outer lines to the exact field edges so the partition tiles the field
// without floating-point slack.
func tileEdge(lo, hi float64, k, n int) float64 {
	switch k {
	case 0:
		return lo
	case n:
		return hi
	}
	return lo + (hi-lo)*float64(k)/float64(n)
}

// NumTiles returns the tile count.
func (f *Field) NumTiles() int { return len(f.tiles) }

// Tile describes tile i.
func (f *Field) Tile(i int) TileInfo {
	tl := f.tiles[i]
	return TileInfo{
		Index: tl.index, Rect: tl.rect, Bounds: tl.bounds,
		Sensors: len(tl.sensors), Sink: tl.sink, Seed: tl.seed,
	}
}

// Owner returns the tile currently owning user j.
func (f *Field) Owner(j int) int { return f.owner[j] }

// Steps returns how many observation rounds advanced at least one tile.
func (f *Field) Steps() int { return f.steps }

// Handoffs returns the cumulative number of cross-tile user migrations — a
// deterministic count, identical at any worker count.
func (f *Field) Handoffs() int { return f.handoffs }

// Spills returns the cumulative number of migrations blocked by
// Config.TileCapacity with no admissible neighbor — users who stayed on an
// out-of-ground tile for a round. Deterministic, like Handoffs.
func (f *Field) Spills() int { return f.spills }

// Imbalance reports the tile-load shape of the most recent round's routing:
// the largest per-tile owned-user count and the mean (NumUsers/tiles). A
// max/mean ratio near 1 is a balanced field; large ratios are the skewed
// distributions the LPT scheduler exists for. Deterministic.
func (f *Field) Imbalance() (maxUsers int, meanUsers float64) {
	return f.lastMax, f.lastMean
}

// WorkTotals sums the cumulative NNLS (solves, iterations) over all tile
// trackers: the deterministic work measure behind the sharding speedup.
func (f *Field) WorkTotals() (solves, iters uint64) {
	for _, tl := range f.tiles {
		s, it := tl.tracker.WorkTotals()
		solves += s
		iters += it
	}
	return solves, iters
}

// Step routes the global flux observation taken at time t (aligned with
// Config.Tracker.SamplePoints) to the tiles, steps them concurrently, and
// merges the per-tile results: StepRound with every sensor delivered fresh.
func (f *Field) Step(t float64, measured []float64) (smc.StepResult, error) {
	return f.StepRound(smc.Round{T: t, Measured: measured})
}

// StepRound is one round over the whole field (Present/Age as in
// smc.Round, aligned with the global sample points). The field always
// steps every user and returns dense estimates, so a round with Users or
// Dst set is rejected. Each tile sees only its own sensors' slice of the
// round: a tile whose delivered sensor set is empty skips the round — its
// users keep their previous estimates, reported with Active false — while
// the remaining tiles step normally. Only when every owning tile skips does
// StepRound return ErrAllMasked (wrapped) with the Field untouched,
// matching the unsharded contract. A malformed round (smc.Round.Check) or
// a T not later than the last accepted round returns smc.ErrBadRound
// before any tile steps, so it too leaves the Field untouched. After the
// merge, the handoff pass migrates every initialized user whose new
// estimate left its tile's ground, in ascending (tile, user) order.
func (f *Field) StepRound(r smc.Round) (smc.StepResult, error) {
	if r.Users != nil || r.Dst != nil {
		return smc.StepResult{}, fmt.Errorf("shard: %w: a field round steps every user, so Users and Dst must be nil",
			smc.ErrBadRound)
	}
	if err := r.Check(len(f.cfg.Tracker.SamplePoints)); err != nil {
		return smc.StepResult{}, fmt.Errorf("shard: %w", err)
	}
	if !(r.T > f.lastT) {
		return smc.StepResult{}, fmt.Errorf("shard: %w: time %v is not after the last accepted round (%v)",
			smc.ErrBadRound, r.T, f.lastT)
	}
	t := r.T
	observed := f.met.m != nil || f.cfg.Tracker.Trace != nil
	var roundStart time.Time
	if observed {
		roundStart = time.Now()
	}

	f.route()

	// Fan the tiles out under the LPT plan. Each worker touches only its
	// tile's state, so the round is race-free by construction; determinism
	// comes from the serial merge below, not from scheduling — the plan
	// only decides which worker runs a tile, never what the tile computes.
	stepTile := func(w, i int) error {
		tl := f.tiles[i]
		if len(tl.owned) == 0 {
			return nil
		}
		var t0 time.Time
		if observed {
			tl.queueNs = time.Since(roundStart).Nanoseconds()
			t0 = time.Now()
		}
		res, err := tl.tracker.StepRound(tl.gather(r))
		if observed {
			tl.wallNs = time.Since(t0).Nanoseconds()
		}
		if err != nil {
			tl.err = err
			return nil
		}
		tl.res = res
		tl.stepped = true
		return nil
	}
	// Cost-weighted LPT: weigh each tile by its owned-user count plus the
	// NNLS work it burned last round. Every input is a deterministic work
	// counter, so the plan — like the output — is a pure function of the
	// run, reproducible at any worker count.
	for i, tl := range f.tiles {
		f.costs[i] = float64(1 + len(tl.owned))
		solves, iters := tl.tracker.WorkTotals()
		f.costs[i] += float64(solves - tl.prevSolves + (iters-tl.prevIters)/4)
	}
	f.plan = par.LPTAssign(f.costs, f.cfg.Tracker.Workers, f.plan)
	_ = par.ForPlan(f.plan, stepTile)
	for _, tl := range f.tiles {
		if tl.stepped {
			tl.prevSolves, tl.prevIters = tl.tracker.WorkTotals()
		}
	}

	// Error scan before any state merges, in ascending tile order: the
	// first hard error (by tile index) rejects the round with the Field
	// untouched; all-masked tiles merely degrade. A round where every
	// owning tile was all-masked returns the lowest tile's error verbatim —
	// for a 1×1 grid that IS the unsharded error.
	var maskErr error
	anyStepped := false
	for _, tl := range f.tiles {
		switch {
		case tl.err == nil:
			anyStepped = anyStepped || tl.stepped
		case errors.Is(tl.err, smc.ErrAllMasked):
			if maskErr == nil {
				maskErr = tl.err
			}
		default:
			return smc.StepResult{}, fmt.Errorf("shard: tile %d: %w", tl.index, tl.err)
		}
	}
	if !anyStepped {
		if maskErr != nil {
			return smc.StepResult{}, maskErr
		}
		return smc.StepResult{}, errors.New("shard: no tile stepped")
	}

	// Serial merge in ascending tile order.
	out := smc.StepResult{Time: t, Estimates: make([]smc.Estimate, f.cfg.Tracker.NumUsers)}
	for _, tl := range f.tiles {
		if !tl.stepped {
			continue
		}
		out.Objective += tl.res.Objective
		for k, j := range tl.owned {
			f.lastEst[j] = tl.res.Estimates[k]
		}
	}
	for j := range out.Estimates {
		e := f.lastEst[j]
		if !f.tiles[f.owner[j]].stepped {
			// Carried forward from a skipped tile: stale, not active.
			e.Active = false
			e.Stretch = 0
		}
		out.Estimates[j] = e
	}
	f.steps++
	f.lastT = t

	// Handoff pass: serial, ascending (tile, user). A user migrates when
	// initialized (its estimate is evidence-backed) and its posterior mean
	// left the owning tile's ground; the sample buffers move wholesale (a
	// pooled transfer, no per-migration allocation) and the source slot
	// resets. Running after the barrier means no tile's step this round saw
	// a migration decided this round. Under TileCapacity a full destination
	// redirects the user through its deterministic neighbor order, or the
	// user stays put and the round counts a spill — all decided in the same
	// serial order, so capacity pressure never costs worker invariance.
	migrations, spills := 0, 0
	for i := range f.handIn {
		f.handIn[i], f.handOut[i] = 0, 0
	}
	capacity := f.cfg.TileCapacity
	for _, tl := range f.tiles {
		if !tl.stepped {
			continue
		}
		for k, j := range tl.owned {
			est := tl.res.Estimates[k]
			if len(est.Samples) == 0 { // uninitialized: nothing to move
				continue
			}
			dst := f.cfg.Grid.TileOf(f.field, est.Mean)
			if dst == tl.index {
				continue
			}
			if capacity > 0 && f.load[dst] >= capacity {
				redirect := -1
				for _, nb := range f.neighbors[dst] {
					if f.load[nb] < capacity && f.tiles[nb].bounds.Contains(est.Mean) {
						redirect = nb
						break
					}
				}
				switch redirect {
				case -1: // nowhere admissible: stay on the source tile
					spills++
					continue
				case tl.index: // nearest admissible tile is home already
					continue
				}
				dst = redirect
			}
			if err := tl.tracker.MoveUserTo(f.tiles[dst].tracker, j); err != nil {
				return smc.StepResult{}, fmt.Errorf("shard: handoff of user %d, tile %d->%d: %w", j, tl.index, dst, err)
			}
			f.owner[j] = dst
			f.load[tl.index]--
			f.load[dst]++
			f.handOut[tl.index]++
			f.handIn[dst]++
			migrations++
		}
	}
	f.handoffs += migrations
	f.spills += spills

	if observed {
		f.record(t, migrations, spills)
	}
	return out, nil
}

// route runs the counting-sort observation-routing pass: one count over the
// owner table sizes each tile's contiguous segment of routeArena, and a
// second pass over ascending user indices fills the segments — so every
// tile's owned slice is ascending, aliases the arena, and the pass allocates
// nothing in steady state no matter how users migrate between rounds. route
// also resets the tiles' per-round scratch and captures the round's tile-load
// imbalance (see Imbalance).
func (f *Field) route() {
	clear(f.routeNext)
	for _, o := range f.owner {
		f.routeNext[o]++
	}
	start, maxLoad := 0, 0
	for i, tl := range f.tiles {
		n := f.routeNext[i]
		f.load[i] = n
		if n > maxLoad {
			maxLoad = n
		}
		tl.owned = f.routeArena[start : start+n]
		f.routeNext[i] = start // becomes the segment's write cursor
		start += n
		tl.stepped = false
		tl.err = nil
	}
	for j, o := range f.owner { // ascending j keeps every segment sorted
		f.routeArena[f.routeNext[o]] = j
		f.routeNext[o]++
	}
	f.lastMax = maxLoad
	f.lastMean = float64(len(f.owner)) / float64(len(f.tiles))
}

// gather builds the tile's round: its slice of the global observation,
// copied into the tile's reusable buffers (nil masks when the round carries
// none), its owned users, and last round's estimates as the output buffer.
func (tl *tile) gather(r smc.Round) smc.Round {
	out := smc.Round{T: r.T, Measured: tl.readings, Users: tl.owned, Dst: tl.res.Estimates}
	for k, si := range tl.sensors {
		tl.readings[k] = r.Measured[si]
	}
	if r.Present != nil {
		if tl.present == nil {
			tl.present = make([]bool, len(tl.sensors))
		}
		for k, si := range tl.sensors {
			tl.present[k] = r.Present[si]
		}
		out.Present = tl.present
	}
	if r.Age != nil {
		if tl.age == nil {
			tl.age = make([]int, len(tl.sensors))
		}
		for k, si := range tl.sensors {
			tl.age[k] = r.Age[si]
		}
		out.Age = tl.age
	}
	return out
}

// record flushes the round's coordinator observability: shard.* counters,
// queue/step histograms, the balance gauges, and one tile-scoped span per
// stepped tile. All counters are deterministic; only the histograms and span
// timings are wall-clock. shard.balance.max_tile_users accumulates each
// round's max tile load, so value/shard.step.count is the mean per-round
// peak; the full per-round load distribution lands in shard.tile.users.
func (f *Field) record(t float64, migrations, spills int) {
	stepped := 0
	for _, tl := range f.tiles {
		if tl.stepped {
			stepped++
		}
	}
	if fm := &f.met; fm.m != nil {
		w := fm.shard
		fm.steps.Inc(w)
		fm.handoffs.Add(w, uint64(migrations))
		fm.tilesStepped.Add(w, uint64(stepped))
		fm.spills.Add(w, uint64(spills))
		fm.maxTile.Add(w, uint64(f.lastMax))
		for _, tl := range f.tiles {
			fm.tileUsers.Observe(w, float64(len(tl.owned)))
			if tl.usersGauge != nil {
				tl.usersGauge.Add(w, uint64(len(tl.owned)))
			}
			if tl.stepped {
				fm.queue.Observe(w, float64(tl.queueNs)/1e6)
				fm.wall.Observe(w, float64(tl.wallNs)/1e6)
				if tl.stepHist != nil {
					tl.stepHist.Observe(w, float64(tl.wallNs)/1e6)
				}
			}
		}
	}
	if f.cfg.Tracker.Trace != nil {
		for _, tl := range f.tiles {
			if !tl.stepped {
				continue
			}
			f.cfg.Tracker.Trace.Add(obs.Span{
				Seed: tl.seed, Step: f.steps - 1, Time: t, Tile: tl.index,
				Users:     len(tl.owned),
				Searched:  len(tl.owned),
				Objective: tl.res.Objective,
				QueueNs:   tl.queueNs,
				WallNs:    tl.wallNs,
				Handoffs:  f.handIn[tl.index] + f.handOut[tl.index],
			})
		}
	}
}
