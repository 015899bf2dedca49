package fit

import (
	"errors"
	"fmt"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
)

// ErrAllMasked is returned by NewProblemMasked when the present mask leaves
// no samples at all: there is nothing to fit against. Callers tracking over
// a degraded observation stream (see internal/fault) test for it with
// errors.Is and skip the round instead of crashing or fitting garbage.
var ErrAllMasked = errors.New("fit: observation entirely masked")

// NewProblemMasked builds a Problem over only the samples whose present
// flag is set — the masked-column fit of a degraded sensing round. Sensors
// that failed, lost this round's report, or have nothing delivered simply
// drop out of the objective ‖W(F − F′)‖₂ instead of contributing bogus
// zeros. points, measured, and (when non-nil) weights must align with
// present; a nil present builds the full problem. It returns ErrAllMasked
// when no sample survives the mask.
func NewProblemMasked(model *fluxmodel.Model, points []geom.Point, measured, weights []float64, present []bool) (*Problem, error) {
	if present == nil {
		return NewProblemWeighted(model, points, measured, weights)
	}
	if len(present) != len(points) {
		return nil, fmt.Errorf("fit: %d points but %d present flags", len(points), len(present))
	}
	if len(points) != len(measured) {
		return nil, fmt.Errorf("fit: %d points but %d measurements", len(points), len(measured))
	}
	if weights != nil && len(weights) != len(points) {
		return nil, fmt.Errorf("fit: %d points but %d weights", len(points), len(weights))
	}
	kept := 0
	for _, p := range present {
		if p {
			kept++
		}
	}
	if kept == 0 {
		return nil, ErrAllMasked
	}
	cp := make([]geom.Point, 0, kept)
	cm := make([]float64, 0, kept)
	orig := make([]int, 0, kept)
	var cw []float64
	if weights != nil {
		cw = make([]float64, 0, kept)
	}
	for i, ok := range present {
		if !ok {
			continue
		}
		cp = append(cp, points[i])
		cm = append(cm, measured[i])
		orig = append(orig, i)
		if weights != nil {
			cw = append(cw, weights[i])
		}
	}
	p, err := NewProblemWeighted(model, cp, cm, cw)
	if err != nil {
		return nil, err
	}
	// Record the compaction so the coarse prestage can read full-layout
	// fingerprint columns through the mask (see Problem.origIdx).
	p.origIdx = orig
	p.fullSamples = len(present)
	return p, nil
}
