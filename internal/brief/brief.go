// Package brief implements the full-map briefing method of §3.C: with the
// flux of the whole network visible, users are identified in rounds — find
// the global traffic peak, place a user there, estimate its traffic stretch
// by fitting the theoretical model, subtract the user's model flux from the
// map, repeat. It doubles as the attack's expensive baseline (sniffing every
// node) against which the sparse-sampling NLS fit is compared.
package brief

import (
	"fmt"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
)

// Detection is one identified mobile user.
type Detection struct {
	Pos            geom.Point // estimated position (the peak node's location)
	Stretch        float64    // fitted integrated stretch factor c = s/r
	PeakFlux       float64    // flux at the peak before subtraction
	ResidualEnergy float64    // flux energy left in the map after this round
}

// The briefing recursion's fixed tuning.
const (
	// minHops excludes nodes closer than this many hops to the peak from
	// the stretch fit; the model fits poorly very close to a sink.
	minHops = 2
	// stopEnergyFrac stops early when the residual energy drops below this
	// fraction of the original.
	stopEnergyFrac = 0.02
	// suppressHops excludes nodes within this many hops of an already
	// detected peak from later peak selection: imperfect subtraction
	// leaves ring residue around a detected user that would otherwise be
	// re-detected as a phantom second user.
	suppressHops = 3
	// stopPeakFrac stops when the next peak falls below this fraction of
	// the first round's peak — later "peaks" of that size are subtraction
	// residue, not users.
	stopPeakFrac = 0.12
)

// Brief identifies up to maxUsers users from the full per-node flux map.
// It returns the detections in discovery order (strongest traffic first);
// fewer than maxUsers are returned when the residual energy collapses
// early.
func Brief(net *network.Network, m *fluxmodel.Model, flux []float64, maxUsers int) ([]Detection, error) {
	if len(flux) != net.Len() {
		return nil, fmt.Errorf("brief: flux length %d, want %d", len(flux), net.Len())
	}
	if maxUsers <= 0 {
		return nil, fmt.Errorf("brief: maxUsers must be positive, got %d", maxUsers)
	}
	residual := append([]float64(nil), flux...)
	initialEnergy := energy(residual)
	if initialEnergy == 0 {
		return nil, nil
	}

	suppressed := make([]bool, net.Len())
	detections := make([]Detection, 0, maxUsers)
	var firstPeak float64
	for round := 0; round < maxUsers; round++ {
		peakIdx, peakFlux := peakExcluding(residual, suppressed)
		if peakIdx < 0 || peakFlux <= 0 {
			break
		}
		if round == 0 {
			firstPeak = peakFlux
		} else if peakFlux < stopPeakFrac*firstPeak {
			break
		}
		pos := net.Pos(peakIdx)

		// Fit the stretch factor over nodes at least minHops away from the
		// peak: c = <g, residual> / <g, g>, the single-column least squares
		// with non-negativity clamp.
		hops := net.HopsFrom(peakIdx)
		var num, den float64
		for i := 0; i < net.Len(); i++ {
			if hops[i] < minHops {
				continue
			}
			g := m.Kernel(pos, net.Pos(i))
			num += g * residual[i]
			den += g * g
		}
		var c float64
		if den > 0 && num > 0 {
			c = num / den
		}

		// Subtract the identified user's model flux, clamping at zero; the
		// peak node and its inner rings carry the user's full relayed
		// traffic, which the model underestimates, so remove them outright
		// and suppress the surrounding rings from later peak selection.
		for i := 0; i < net.Len(); i++ {
			if hops[i] >= 0 && hops[i] <= suppressHops {
				suppressed[i] = true
			}
			if hops[i] >= 0 && hops[i] < minHops {
				residual[i] = 0
				continue
			}
			residual[i] -= c * m.Kernel(pos, net.Pos(i))
			if residual[i] < 0 {
				residual[i] = 0
			}
		}

		res := energy(residual)
		detections = append(detections, Detection{
			Pos:            pos,
			Stretch:        c,
			PeakFlux:       peakFlux,
			ResidualEnergy: res,
		})
		if res < stopEnergyFrac*initialEnergy {
			break
		}
	}
	return detections, nil
}

func peakExcluding(flux []float64, excluded []bool) (int, float64) {
	idx, best := -1, 0.0
	for i, f := range flux {
		if excluded != nil && excluded[i] {
			continue
		}
		if idx < 0 || f > best {
			idx, best = i, f
		}
	}
	return idx, best
}

func energy(flux []float64) float64 {
	var s float64
	for _, f := range flux {
		s += f * f
	}
	return s
}
