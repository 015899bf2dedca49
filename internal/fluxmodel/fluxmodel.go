// Package fluxmodel implements the paper's parameterized network-flux model
// (§3.B). For a mobile sink at position u and an observation point p inside
// a field:
//
//	continuous: F(p) = s * (l² − d²) / (2d)          (Formula 3.2)
//	discrete:   F(p) ≈ s * (l² − d²) / (2 d r)       (Formula 3.4)
//
// where d is the Euclidean distance from u to p, l is the distance from u to
// the field boundary along the ray through p, s the traffic stretch, and r
// the average hop length. The discrete form is the continuous one divided by
// r, so the package exposes a single Geometry kernel g(u, p) = (l² − d²)/(2d)
// and lets callers scale by s (continuous) or the integrated factor c = s/r
// (discrete), exactly as the NLS fit of §4.A treats s/r as one parameter.
package fluxmodel

import (
	"fmt"
	"math"
	"math/bits"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
)

// Model evaluates the flux kernel over a rectangular field.
type Model struct {
	field geom.Rect
	// minDist clamps the sink-to-node distance d away from zero: the model
	// diverges at the sink itself, and physically a node closer than about
	// half a hop is the sink's first relay. Defaults to half the hop length
	// used at calibration, falling back to 1e-6 when unset.
	minDist float64
}

// New returns a model over field with the given distance clamp. Pass
// minDist <= 0 to use a tiny epsilon (useful for pure-geometry tests); a
// NaN or infinite minDist is an error, since a NaN clamp would switch the
// clamp off and leave the kernel infinite at the sink.
func New(field geom.Rect, minDist float64) (*Model, error) {
	if field.Width() <= 0 || field.Height() <= 0 {
		return nil, fmt.Errorf("fluxmodel: degenerate field %v", field)
	}
	if math.IsNaN(minDist) || math.IsInf(minDist, 0) {
		return nil, fmt.Errorf("fluxmodel: distance clamp %v is not finite", minDist)
	}
	if minDist <= 0 {
		minDist = 1e-6
	}
	return &Model{field: field, minDist: minDist}, nil
}

// Field returns the model's field rectangle.
func (m *Model) Field() geom.Rect { return m.field }

// MinDist returns the distance clamp.
func (m *Model) MinDist() float64 { return m.minDist }

// Kernel returns g(sink, p) = (l² − d²) / (2 d), the per-unit-stretch flux
// the model predicts at point p for a sink at the given position. It returns
// 0 when p is outside the field (no sensor, no flux) and clamps d at
// MinDist. The kernel is always non-negative because l >= d for points
// inside the field.
//
// Kernel is the generic reference implementation (one Hypot, one RayExit
// with unit-vector normalization per call). The vectorized evaluators below
// use the fused closed-form path instead; the equivalence suite in
// fluxmodel_test.go pins the two together.
func (m *Model) Kernel(sink, p geom.Point) float64 {
	if !m.field.Contains(sink) {
		return 0
	}
	return m.kernelSinkInside(sink, p)
}

// kernelSinkInside is Kernel for a sink already known to lie inside the
// field. The vectorized evaluators hoist the sink containment check out of
// their inner loops — the sink is loop-invariant while the observation
// point varies.
func (m *Model) kernelSinkInside(sink, p geom.Point) float64 {
	if !m.field.Contains(p) {
		return 0
	}
	d := sink.Dist(p)
	l, ok := m.field.BoundaryDistThrough(sink, p)
	if !ok {
		// p coincides with the sink: use the clamped distance along an
		// arbitrary axis direction for l.
		l, ok = m.field.RayExit(sink, geom.Vec{DX: 1})
		if !ok {
			return 0
		}
	}
	if d < m.minDist {
		d = m.minDist
	}
	if l < d {
		l = d // numerical guard; geometrically l >= d inside the field
	}
	return (l*l - d*d) / (2 * d)
}

// FluxAt returns the discrete-model flux prediction c * g(sink, p) for the
// integrated stretch factor c = s/r.
func (m *Model) FluxAt(sink, p geom.Point, c float64) float64 {
	return c * m.Kernel(sink, p)
}

// kernelFused evaluates the kernel at p for a sink known to lie inside the
// field, using the fused closed-form boundary parameter instead of a RayExit
// call. With v = p − sink, |v| = d, the slab parameter τ = slabs.Scale(v)
// satisfies l = τ·d, so
//
//	g = (l² − d²) / (2d) = d (τ² − 1) / 2
//
// — one sqrt for d, two divisions inside Scale, no unit-vector
// normalization, no second sqrt for l. The slabs must be m.field.SlabsAt(sink),
// hoisted out of the caller's loop because they are sink-invariant. The
// MinDist clamp and the l >= d guard fall back to the explicit (l² − d²)/(2d)
// form, mirroring the generic path's clamp ordering exactly.
func (m *Model) kernelFused(slabs geom.ExitSlabs, sink, p geom.Point) float64 {
	if !m.field.Contains(p) {
		return 0
	}
	dx, dy := p.X-sink.X, p.Y-sink.Y
	tau := slabs.Scale(dx, dy)
	if math.IsInf(tau, 1) {
		// p coincides with the sink: take the generic fallback direction.
		return m.kernelSinkInside(sink, p)
	}
	d := math.Sqrt(dx*dx + dy*dy)
	if d >= m.minDist && tau >= 1 {
		return d * (tau*tau - 1) / 2
	}
	// Clamped region (p within MinDist of the sink, or a boundary sink whose
	// ray exits immediately): compute l before clamping d, as the generic
	// path does.
	l := tau * d
	if d < m.minDist {
		d = m.minDist
	}
	if l < d {
		l = d
	}
	return (l*l - d*d) / (2 * d)
}

// KernelVector evaluates the kernel at every point in pts for one sink.
func (m *Model) KernelVector(sink geom.Point, pts []geom.Point) []float64 {
	return m.KernelVectorInto(sink, pts, make([]float64, len(pts)))
}

// KernelVectorInto evaluates the kernel at every point in pts for one sink
// into the caller-supplied destination, which must have length len(pts),
// and returns it. It is the allocation-free hook the candidate search uses
// to build its per-candidate column caches, so it runs the fused column
// kernel: the sink containment check and the boundary slab offsets are
// hoisted out of the loop (both are sink-invariant). On amd64 with AVX,
// kernelLanes evaluates the points four at a time; kernelLoop takes the
// rest. Every entry has the bits of kernelFused either way.
func (m *Model) KernelVectorInto(sink geom.Point, pts []geom.Point, dst []float64) []float64 {
	if len(dst) != len(pts) {
		panic(fmt.Sprintf("fluxmodel: KernelVectorInto destination length %d, want %d", len(dst), len(pts)))
	}
	if !m.field.Contains(sink) {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	slabs := m.field.SlabsAt(sink)
	done := 0
	if useAVX {
		done = m.kernelLanes(slabs, sink, pts, dst)
	}
	m.kernelLoop(slabs, sink, pts[done:], dst[done:])
	return dst
}

// kernelLoop is KernelVectorInto's Go loop, the non-AVX path and the
// oracle of kernelLanes. It runs kernelFused's fast path inline — the
// containment check, the slab parameter τ (ExitSlabs.Scale, inlined), one
// sqrt for d and d(τ²−1)/2. A point off that path (outside the field, on
// the sink, within MinDist of it, or with τ < 1 or not finite) takes
// kernelFused itself, whose fast path computes the same expressions.
func (m *Model) kernelLoop(slabs geom.ExitSlabs, sink geom.Point, pts []geom.Point, dst []float64) {
	field, minDist := m.field, m.minDist
	dst = dst[:len(pts)]
	for i, p := range pts {
		if field.Contains(p) {
			dx, dy := p.X-sink.X, p.Y-sink.Y
			tau := slabs.Scale(dx, dy)
			d := math.Sqrt(dx*dx + dy*dy)
			if d >= minDist && tau >= 1 && tau <= math.MaxFloat64 {
				dst[i] = d * (tau*tau - 1) / 2
				continue
			}
		}
		dst[i] = m.kernelFused(slabs, sink, p)
	}
}

// laneBlock is the most points one kernelLanesAVX call takes: its result
// has one bit per point.
const laneBlock = 64

// laneArgs is kernelLanesAVX's per-sink input; kernel_amd64.s reads it by
// offset, eight bytes per field in this order.
type laneArgs struct {
	sinkX, sinkY           float64
	minX, maxX, minY, maxY float64 // the field
	xhi, xlo, yhi, ylo     float64 // the sink's slab offsets
	minDist                float64
}

// kernelLanes fills dst for the first len(pts) &^ 3 points, four per AVX
// instruction, and returns that count. The assembly runs kernelLoop's fast
// path on every lane in the same IEEE operations and marks the lanes that
// leave it; those take kernelFused, as they do in kernelLoop. Only called
// when useAVX is set.
func (m *Model) kernelLanes(slabs geom.ExitSlabs, sink geom.Point, pts []geom.Point, dst []float64) int {
	f := m.field
	a := laneArgs{sinkX: sink.X, sinkY: sink.Y,
		minX: f.Min.X, maxX: f.Max.X, minY: f.Min.Y, maxY: f.Max.Y, minDist: m.minDist}
	a.xhi, a.xlo, a.yhi, a.ylo = slabs.Offsets()
	n4 := len(pts) &^ 3
	for lo := 0; lo < n4; lo += laneBlock {
		hi := min(lo+laneBlock, n4)
		for slow := kernelLanesAVX(pts[lo:hi], dst[lo:hi], &a); slow != 0; slow &= slow - 1 {
			i := lo + bits.TrailingZeros64(slow)
			dst[i] = m.kernelFused(slabs, sink, pts[i])
		}
	}
	return n4
}

// KernelMatrixInto evaluates the kernel for a whole batch of sinks in one
// pass: column j of the row-major len(sinks)×len(pts) matrix — the slice
// dst[j*len(pts) : (j+1)*len(pts)] — receives KernelVectorInto(sinks[j],
// pts, ...). dst must have length len(sinks)*len(pts); the filled matrix is
// returned. The fingerprint database (internal/fingerprint) builds its grid
// of flux-signature columns through this call, and the coarse-to-fine
// candidate search fills the kernel columns of a whole shortlist with it,
// so the per-sink setup (containment check, boundary slab offsets) is paid
// once per column and the writes stay contiguous across the batch.
func (m *Model) KernelMatrixInto(sinks, pts []geom.Point, dst []float64) []float64 {
	n := len(pts)
	if len(dst) != len(sinks)*n {
		panic(fmt.Sprintf("fluxmodel: KernelMatrixInto destination length %d, want %d", len(dst), len(sinks)*n))
	}
	for j, sink := range sinks {
		m.KernelVectorInto(sink, pts, dst[j*n:(j+1)*n])
	}
	return dst
}

// PredictFlux returns the model's combined flux prediction at each point of
// pts for K sinks with integrated stretch factors cs (c_j = s_j/r):
// F_i = Σ_j c_j g(sink_j, p_i). This is the estimated flux vector F̂ of
// Equation 4.1.
func (m *Model) PredictFlux(sinks []geom.Point, cs []float64, pts []geom.Point) ([]float64, error) {
	if len(sinks) != len(cs) {
		return nil, fmt.Errorf("fluxmodel: %d sinks but %d stretch factors", len(sinks), len(cs))
	}
	out := make([]float64, len(pts))
	col := make([]float64, len(pts))
	for j, sink := range sinks {
		if cs[j] == 0 || !m.field.Contains(sink) {
			continue
		}
		for i, g := range m.KernelVectorInto(sink, pts, col) {
			out[i] += cs[j] * g
		}
	}
	return out, nil
}

// Calibration captures the network-specific constants the discrete model
// needs: the average hop length r and the implied per-node data density.
type Calibration struct {
	HopLength float64 // r: average Euclidean length of one hop
	AvgDegree float64 // diagnostic: the network's average degree
}

// Calibrate estimates the model constants from a network, using the radial
// hop progress from the given reference node (nodes three or more hops out,
// where the discrete model applies).
func Calibrate(net *network.Network, refNode int) (Calibration, error) {
	if refNode < 0 || refNode >= net.Len() {
		return Calibration{}, fmt.Errorf("fluxmodel: reference node %d out of range", refNode)
	}
	return Calibration{
		HopLength: net.RadialHopProgress(refNode, 3),
		AvgDegree: net.AvgDegree(),
	}, nil
}

// ForNetwork builds a model for the network's field with the distance clamp
// set to half the calibrated hop length, which is where the discrete model's
// first relay ring sits.
func ForNetwork(net *network.Network, cal Calibration) (*Model, error) {
	return New(net.Field(), cal.HopLength/2)
}

// AccuracyStats quantifies how well the model approximates measured flux,
// reproducing the statistics behind Figure 3.
type AccuracyStats struct {
	// ErrRates holds the per-node relative approximation error
	// |measured − predicted| / measured for nodes with positive measured
	// flux (the paper's "error rate" of Fig 3a).
	ErrRates []float64
	// ByHop aggregates measured and predicted flux by hop distance from the
	// sink (Fig 3b).
	ByHop []HopFlux
	// EnergyPreserved3Plus is the fraction of the total flux amount carried
	// by nodes at least 3 hops from the sink; the paper notes those nodes
	// keep 70%+ of the network-flux energy while fitting the model much
	// better.
	EnergyPreserved3Plus float64
}

// HopFlux is the average measured and model flux at one hop distance.
type HopFlux struct {
	Hop       int
	N         int
	Measured  float64
	Predicted float64
}

// Accuracy compares measured per-node flux for a single sink against the
// model prediction with unit stretch. The caller passes the user's true
// stretch s and the calibrated hop length r; the prediction uses c = s/r.
// Nodes at fewer than minHop hops are excluded from the error-rate CDF
// (pass 0 to keep every node), matching the paper's observation that nodes
// very close to the sink fit poorly.
func Accuracy(net *network.Network, m *Model, sink geom.Point, measured []float64,
	stretch, hopLen float64, minHop int) (AccuracyStats, error) {
	if len(measured) != net.Len() {
		return AccuracyStats{}, fmt.Errorf("fluxmodel: measured length %d, want %d", len(measured), net.Len())
	}
	if hopLen <= 0 {
		return AccuracyStats{}, fmt.Errorf("fluxmodel: hop length must be positive, got %v", hopLen)
	}
	sinkNode := net.Nearest(sink)
	hops := net.HopsFrom(sinkNode)
	c := stretch / hopLen

	var stats AccuracyStats
	maxHop := 0
	for _, h := range hops {
		if h > maxHop {
			maxHop = h
		}
	}
	byHop := make([]HopFlux, maxHop+1)
	for h := range byHop {
		byHop[h].Hop = h
	}

	var totalEnergy, energy3 float64
	for i := 0; i < net.Len(); i++ {
		if hops[i] < 0 {
			continue
		}
		pred := m.FluxAt(sink, net.Pos(i), c)
		meas := measured[i]
		b := &byHop[hops[i]]
		b.N++
		b.Measured += meas
		b.Predicted += pred
		totalEnergy += meas
		if hops[i] >= 3 {
			energy3 += meas
		}
		if meas > 0 && hops[i] >= minHop {
			stats.ErrRates = append(stats.ErrRates, math.Abs(meas-pred)/meas)
		}
	}
	for h := range byHop {
		if byHop[h].N > 0 {
			byHop[h].Measured /= float64(byHop[h].N)
			byHop[h].Predicted /= float64(byHop[h].N)
		}
	}
	stats.ByHop = byHop
	if totalEnergy > 0 {
		stats.EnergyPreserved3Plus = energy3 / totalEnergy
	}
	return stats, nil
}
