// Package fingerprint precomputes the coarse stage of the coarse-to-fine
// candidate search: a database of kernel flux-signature columns over a
// regular grid of cells covering the deployment field. Each cell stores the
// theoretical signature a mobile sink at the cell center would leave on the
// sniffed nodes — exactly the kernel column g(center, p_i) the exact NLS
// evaluator (internal/fit) would compute for a candidate at that position.
// At search time the fit layer scores every cell against the observation
// with a matched filter and shortlists only the candidates whose cells
// score highest, running the expensive Gram/NNLS evaluation on the
// shortlist alone.
//
// The database is a pure function of (model, sample points, grid
// resolution): columns are filled by the batched fluxmodel.KernelMatrixInto
// into index-disjoint arena slots, so builds are worker-count-invariant,
// and cell lookup is grid arithmetic whose lowest-index tie-break makes
// candidate-to-cell assignment deterministic even for positions
// equidistant from several centers (see DESIGN.md §6.5).
package fingerprint

import (
	"errors"
	"fmt"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/par"
)

// CoarseConfig configures the coarse-to-fine prestage. The zero value
// (Enabled false) leaves the exact search path untouched.
type CoarseConfig struct {
	// Enabled turns the prestage on. Off, no database is built and every
	// search runs the exact path over all candidates.
	Enabled bool
	// GridRes is the fingerprint grid resolution per axis: the field is
	// covered by GridRes×GridRes cells (default 24, i.e. 576 signature
	// columns on the paper's 30×30 field — cells of 1.25 units, well under
	// the communication radius).
	GridRes int
	// TopK is how many candidates per user survive the coarse shortlist
	// (default 64). TopK at or above the candidate count degrades to the
	// exact search: the shortlist is then the full candidate list and the
	// result is byte-identical to the un-prestaged search.
	TopK int
}

// Default grid parameters; see CoarseConfig.
const (
	DefaultGridRes = 24
	DefaultTopK    = 64
	// MaxGridRes bounds the database size: resolutions beyond this point
	// cost more to score than the exact evaluations they avoid.
	MaxGridRes = 512
)

// WithDefaults fills zero fields with the package defaults.
func (c CoarseConfig) WithDefaults() CoarseConfig {
	if c.GridRes <= 0 {
		c.GridRes = DefaultGridRes
	}
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	return c
}

// DB is a fingerprint database: one kernel signature column per grid cell
// of a regular grid, so the nearest cell to a position is found by grid
// arithmetic. A DB is immutable after NewDB and safe for concurrent
// readers.
type DB struct {
	field   geom.Rect
	res     int
	centers []geom.Point
	cols    []float64 // cells × numSamples, row-major per cell
	norms   []float64 // per-cell unweighted ‖column‖², cached at build time
	n       int       // samples per column
	// invW and invH are the reciprocal cell width and height, which map a
	// position to its grid cell.
	invW, invH float64
}

// NewDB builds the fingerprint database for the given model and sniffed
// sample points: GridRes×GridRes cell centers over the model's field, each
// with its kernel signature column over points. Build work shards across up
// to workers goroutines (0 means GOMAXPROCS) into index-disjoint column
// slots, so the database contents never depend on the worker count. A
// non-nil metrics registry receives the fingerprint.db.builds and
// fingerprint.db.cells work counters.
func NewDB(model *fluxmodel.Model, points []geom.Point, cfg CoarseConfig, workers int, m *obs.Metrics) (*DB, error) {
	if model == nil {
		return nil, errors.New("fingerprint: nil model")
	}
	return NewDBOver(model, model.Field(), points, cfg, workers, m)
}

// NewDBOver is NewDB with the cell grid laid over an explicit bounds
// rectangle instead of the model's whole field: GridRes×GridRes cells tile
// bounds, while the kernel itself still evaluates against the full field
// geometry. A sharded field (internal/shard) uses this to give each tile a
// database covering only the tile's own ground — same resolution, a quarter
// of the cells on a 2×2 grid. Bounds must lie inside the model field and
// have positive extent.
func NewDBOver(model *fluxmodel.Model, bounds geom.Rect, points []geom.Point, cfg CoarseConfig, workers int, m *obs.Metrics) (*DB, error) {
	cfg = cfg.WithDefaults()
	if model == nil {
		return nil, errors.New("fingerprint: nil model")
	}
	if len(points) == 0 {
		return nil, errors.New("fingerprint: no sample points")
	}
	if cfg.GridRes > MaxGridRes {
		return nil, fmt.Errorf("fingerprint: grid resolution %d exceeds %d", cfg.GridRes, MaxGridRes)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("fingerprint: degenerate bounds %v", bounds)
	}
	if f := model.Field(); !f.Contains(bounds.Min) || !f.Contains(bounds.Max) {
		return nil, fmt.Errorf("fingerprint: bounds %v outside model field %v", bounds, f)
	}
	field := bounds
	res := cfg.GridRes
	cells := res * res
	n := len(points)
	db := &DB{
		field:   field,
		res:     res,
		centers: make([]geom.Point, cells),
		cols:    make([]float64, cells*n),
		norms:   make([]float64, cells),
		n:       n,
	}
	cw := field.Width() / float64(res)
	ch := field.Height() / float64(res)
	db.invW, db.invH = 1/cw, 1/ch
	for c := range db.centers {
		ix, iy := c%res, c/res
		db.centers[c] = geom.Pt(
			field.Min.X+(float64(ix)+0.5)*cw,
			field.Min.Y+(float64(iy)+0.5)*ch,
		)
	}
	// Fill the columns in contiguous chunks through the batched kernel:
	// each chunk is a pure function of its cell range, written into
	// index-disjoint arena slots.
	const chunk = 32
	chunks := (cells + chunk - 1) / chunk
	par.For(chunks, workers, func(_, ci int) {
		lo := ci * chunk
		hi := min(lo+chunk, cells)
		model.KernelMatrixInto(db.centers[lo:hi], points, db.cols[lo*n:hi*n])
		for c := lo; c < hi; c++ {
			var norm2 float64
			for _, v := range db.cols[c*n : (c+1)*n] {
				norm2 += v * v
			}
			db.norms[c] = norm2
		}
	})
	if m != nil {
		m.Counter("fingerprint.db.builds").Inc(0)
		m.Counter("fingerprint.db.cells").Add(0, uint64(cells))
	}
	return db, nil
}

// Cells returns the number of grid cells (GridRes²).
func (db *DB) Cells() int { return len(db.centers) }

// Res returns the per-axis grid resolution.
func (db *DB) Res() int { return db.res }

// NumSamples returns the number of sample points each column covers — the
// full (unmasked) sniffed-node count the database was built over.
func (db *DB) NumSamples() int { return db.n }

// Column returns cell c's signature column: the kernel vector g(center of
// cell c, p_i) over the build-time sample points. The returned slice
// aliases the database arena and must not be modified.
func (db *DB) Column(c int) []float64 {
	return db.cols[c*db.n : (c+1)*db.n : (c+1)*db.n]
}

// ColumnNorm2 returns the cached unweighted squared norm of cell c's
// column — the sequential sum of squares over the column, bit-identical to
// accumulating it inline during a scoring pass. Weighted or masked scoring
// cannot use the cache (the effective column changes per problem).
func (db *DB) ColumnNorm2(c int) float64 { return db.norms[c] }

// CellOf returns the cell whose center is nearest to p. Positions
// equidistant from several centers — candidates on exact cell edges —
// always map to the lowest cell index, which keeps shortlists
// deterministic. A position outside the bounds maps to the nearest
// boundary cell. A non-finite coordinate, or one so large that its squared
// distance overflows, still gives a valid cell: every distance compares as
// NaN or +Inf, so the scan keeps the lowest-index neighbor of the clamped
// cell.
//
// The nearest center of a regular grid lies in the cell containing p, so
// CellOf computes that cell's clamped index and compares p's squared
// distance to the centers of it and its neighbors, in ascending cell index
// with a strict <. The neighbors absorb any rounding of the index on a
// cell edge.
func (db *DB) CellOf(p geom.Point) int {
	ix := gridIndex((p.X-db.field.Min.X)*db.invW, db.res)
	iy := gridIndex((p.Y-db.field.Min.Y)*db.invH, db.res)
	best, bestD := -1, 0.0
	for y := max(iy-1, 0); y <= min(iy+1, db.res-1); y++ {
		for x := max(ix-1, 0); x <= min(ix+1, db.res-1); x++ {
			c := y*db.res + x
			if d := p.Dist2(db.centers[c]); best < 0 || d < bestD {
				best, bestD = c, d
			}
		}
	}
	return best
}

// gridIndex clamps the cell coordinate f into [0, res): NaN and negative
// coordinates map to 0, and coordinates at or past res to res−1.
func gridIndex(f float64, res int) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(res):
		return res - 1
	}
	return int(f)
}
