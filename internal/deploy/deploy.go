// Package deploy generates sensor-node deployments over a rectangular field.
//
// The paper evaluates two layouts (§5.A, §5.C): "perturbed grids" — nodes on
// a regular grid, each jittered inside its cell, following Bruck, Gao and
// Jiang (MobiCom'05) — representing regular conditions, and purely uniform
// random placement representing high variability.
package deploy

import (
	"fmt"
	"math"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// Kind identifies a deployment strategy.
type Kind int

const (
	// PerturbedGrid places one node per grid cell, jittered uniformly
	// within a fraction of the cell around the cell center.
	PerturbedGrid Kind = iota + 1
	// UniformRandom places nodes independently and uniformly in the field.
	UniformRandom
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case PerturbedGrid:
		return "perturbed-grid"
	case UniformRandom:
		return "uniform-random"
	default:
		return fmt.Sprintf("deploy.Kind(%d)", int(k))
	}
}

// Config describes a deployment request.
type Config struct {
	Field geom.Rect // the deployment region
	N     int       // number of nodes
	Kind  Kind      // layout strategy
}

// gridJitter is PerturbedGrid's perturbation amplitude as a fraction of the
// cell size: strong perturbation, as in the paper's perturbed grids.
const gridJitter = 0.4

// Generate places nodes according to cfg using the randomness of src.
// The returned positions always lie inside cfg.Field.
func Generate(cfg Config, src *rng.Source) ([]geom.Point, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("deploy: need positive node count, got %d", cfg.N)
	}
	if cfg.Field.Width() <= 0 || cfg.Field.Height() <= 0 {
		return nil, fmt.Errorf("deploy: degenerate field %v", cfg.Field)
	}
	switch cfg.Kind {
	case PerturbedGrid:
		return perturbedGrid(cfg, src), nil
	case UniformRandom:
		return uniformRandom(cfg, src), nil
	default:
		return nil, fmt.Errorf("deploy: unknown kind %v", cfg.Kind)
	}
}

func uniformRandom(cfg Config, src *rng.Source) []geom.Point {
	pts := make([]geom.Point, cfg.N)
	for i := range pts {
		pts[i] = src.InRect(cfg.Field)
	}
	return pts
}

// perturbedGrid chooses grid dimensions whose product covers N, assigns one
// node per cell in row-major order, and jitters each node around its cell
// center. When the grid has more cells than N, a random subset of cells is
// left empty so the density stays spatially uniform.
func perturbedGrid(cfg Config, src *rng.Source) []geom.Point {
	w, h := cfg.Field.Width(), cfg.Field.Height()
	// Pick cols/rows proportional to the aspect ratio.
	cols := int(math.Ceil(math.Sqrt(float64(cfg.N) * w / h)))
	if cols < 1 {
		cols = 1
	}
	rows := (cfg.N + cols - 1) / cols
	total := cols * rows

	// Which cells hold nodes: all of them when total == N, otherwise a
	// random subset of size N.
	occupied := make([]bool, total)
	if total == cfg.N {
		for i := range occupied {
			occupied[i] = true
		}
	} else {
		for _, idx := range src.SampleK(total, cfg.N) {
			occupied[idx] = true
		}
	}

	cw, ch := w/float64(cols), h/float64(rows)
	pts := make([]geom.Point, 0, cfg.N)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !occupied[r*cols+c] {
				continue
			}
			cx := cfg.Field.Min.X + (float64(c)+0.5)*cw
			cy := cfg.Field.Min.Y + (float64(r)+0.5)*ch
			p := geom.Pt(
				cx+src.Uniform(-gridJitter, gridJitter)*cw,
				cy+src.Uniform(-gridJitter, gridJitter)*ch,
			)
			pts = append(pts, cfg.Field.Clamp(p))
		}
	}
	return pts
}
