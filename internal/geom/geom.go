// Package geom provides the planar geometry primitives used throughout the
// flux-fingerprinting pipeline: points, vectors, rectangles, and the
// ray/boundary intersection that defines the model parameter l (the
// distance from a mobile sink to the network boundary along the direction
// of an observed node, §3.B of the paper).
//
// Everything is value-typed and allocation-free: Point and Vec are plain
// float64 pairs, Rect operations (Contains, Clamp, Center, Diameter) are
// pure functions, and RayToBoundary walks the four sides directly. The
// deployment generators (internal/deploy), the flux model
// (internal/fluxmodel), and the samplers of internal/rng all build on these
// types, so their conventions — origin at Rect.Min, y growing upward —
// propagate through the whole repository.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vec) Point { return Point{X: p.X + v.DX, Y: p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{DX: p.X - q.X, DY: p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as unit-disk neighbor construction.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Vec is a displacement in the plane.
type Vec struct {
	DX float64 `json:"dx"`
	DY float64 `json:"dy"`
}

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.DX, v.DY) }

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{DX: v.DX * k, DY: v.DY * k} }

// Unit returns the unit vector in the direction of v, and false when v is the
// zero vector (in which case the zero vector is returned).
func (v Vec) Unit() (Vec, bool) {
	n := v.Norm()
	if n == 0 {
		return Vec{}, false
	}
	return Vec{DX: v.DX / n, DY: v.DY / n}, true
}

// Rect is an axis-aligned rectangle. It is the canonical shape of the sensor
// field in the paper's evaluation (a 30 by 30 square field). Min is the
// lower-left corner and Max the upper-right corner.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewRect returns the axis-aligned rectangle spanned by the two corner
// points, normalizing the corner order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// Square returns the square field [0, side] x [0, side].
func Square(side float64) Rect {
	return Rect{Min: Point{}, Max: Point{X: side, Y: side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Diameter returns the length of the rectangle diagonal. The paper reports
// localization errors as fractions of the field diameter.
func (r Rect) Diameter() float64 { return r.Min.Dist(r.Max) }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the point of r nearest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// RayExit returns the distance t >= 0 from origin to the boundary of r along
// the direction dir, i.e. the largest t such that origin + t*dir still lies
// in r. This is the parameter l of the flux model: the distance from the
// mobile sink to the network boundary along the direction of a node.
//
// origin must lie inside r and dir must be non-zero; otherwise ok is false.
// The computation is the standard slab method specialized to a ray known to
// start inside the box, so exactly one positive exit parameter exists.
func (r Rect) RayExit(origin Point, dir Vec) (t float64, ok bool) {
	if !r.Contains(origin) {
		return 0, false
	}
	u, ok := dir.Unit()
	if !ok {
		return 0, false
	}
	t = math.Inf(1)
	// Horizontal slabs.
	if u.DX > 0 {
		t = math.Min(t, (r.Max.X-origin.X)/u.DX)
	} else if u.DX < 0 {
		t = math.Min(t, (r.Min.X-origin.X)/u.DX)
	}
	// Vertical slabs.
	if u.DY > 0 {
		t = math.Min(t, (r.Max.Y-origin.Y)/u.DY)
	} else if u.DY < 0 {
		t = math.Min(t, (r.Min.Y-origin.Y)/u.DY)
	}
	if math.IsInf(t, 1) {
		// dir was zero after normalization; cannot happen given ok above,
		// but guard against degenerate rectangles with zero extent.
		return 0, false
	}
	return math.Max(t, 0), true
}

// BoundaryDistThrough returns the distance l from origin to the boundary of
// r along the ray that passes through the point via. When via coincides with
// origin there is no defined direction and ok is false.
func (r Rect) BoundaryDistThrough(origin, via Point) (l float64, ok bool) {
	return r.RayExit(origin, via.Sub(origin))
}

// ExitSlabs caches the slab offsets of a rectangle around a fixed interior
// origin, so repeated boundary-exit queries from that origin cost two
// divisions and two comparisons each instead of a full RayExit (containment
// check, normalization, four slab branches). The flux model's vectorized
// kernel builds one ExitSlabs per sink and queries it once per sample point.
type ExitSlabs struct {
	xhi, xlo float64 // Max.X - origin.X, Min.X - origin.X
	yhi, ylo float64 // Max.Y - origin.Y, Min.Y - origin.Y
}

// SlabsAt returns the cached slab offsets of r around origin. The origin
// must lie inside r for Scale to be meaningful, mirroring RayExit's
// contract; SlabsAt itself does not check.
func (r Rect) SlabsAt(origin Point) ExitSlabs {
	return ExitSlabs{
		xhi: r.Max.X - origin.X, xlo: r.Min.X - origin.X,
		yhi: r.Max.Y - origin.Y, ylo: r.Min.Y - origin.Y,
	}
}

// Offsets returns the slab offsets Max.X − origin.X, Min.X − origin.X,
// Max.Y − origin.Y and Min.Y − origin.Y, for kernels that evaluate Scale
// outside Go.
func (s ExitSlabs) Offsets() (xhi, xlo, yhi, ylo float64) {
	return s.xhi, s.xlo, s.yhi, s.ylo
}

// Scale returns the closed-form slab parameter τ: the largest τ >= 0 such
// that origin + τ·(dx, dy) still lies in the rectangle. The direction is
// deliberately NOT normalized — for the flux model's ray from a sink through
// a sample point at distance d, the boundary distance is simply l = τ·d, so
// the kernel g = (l² − d²)/(2d) collapses to d(τ²−1)/2 with no unit vector
// and no second square root. A zero direction returns +Inf; callers treat
// that as "sample point coincides with the origin" and fall back. Scale is
// kept under the compiler's inlining budget, so the flux model's column
// loop runs it inline: +Inf comes from its bits, because a math.Inf call
// would put Scale over that budget.
func (s ExitSlabs) Scale(dx, dy float64) float64 {
	t := math.Float64frombits(0x7ff0000000000000) // +Inf
	if dx > 0 {
		t = s.xhi / dx
	} else if dx < 0 {
		t = s.xlo / dx
	}
	if dy > 0 {
		if ty := s.yhi / dy; ty < t {
			t = ty
		}
	} else if dy < 0 {
		if ty := s.ylo / dy; ty < t {
			t = ty
		}
	}
	return t
}

// Lerp linearly interpolates between a and b; t=0 yields a, t=1 yields b.
func Lerp(a, b Point, t float64) Point {
	return Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}

// MatchGreedy pairs estimates with true positions the way every error
// figure scores them: in estimate order, each estimate takes the nearest
// truth not yet taken (the lowest index on a tie). It returns the truth
// index of each of the first min(len(estimates), len(truths)) estimates;
// the estimates after those find no truth left. Tracker and localization
// identities are exchangeable, so errors are measured after this matching.
func MatchGreedy(estimates, truths []Point) []int {
	used := make([]bool, len(truths))
	out := make([]int, 0, min(len(estimates), len(truths)))
	for _, est := range estimates {
		best, bestD := -1, 0.0
		for j, tr := range truths {
			if used[j] {
				continue
			}
			if d := est.Dist(tr); best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}
