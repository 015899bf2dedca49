// Robust fitting: consistency checks against lying sensors.
//
// The plain objective ‖W(F − F′)‖₂ trusts every reading equally (up to the
// relative weights), so one Byzantine sensor inflating its flux by 4× can
// drag the whole composition toward a phantom source. The defense here
// (RobustBoth) re-derives per-sensor trust from the fit's own residuals in
// two stages, leave-one-sensor-out flagging and then Huber IRLS.
//
// Both stages score relative residuals: the weighted residual r_i is divided
// by min(|wF′_i|, |wF̂_i|) + q — the smaller of reading and prediction, with
// q a fifth of the mean reading magnitude — because flux readings span orders
// of magnitude and an absolute-residual test would flag honest near-sink
// sensors while missing liars in the quiet part of the field. Taking the
// smaller magnitude keeps a liar from shrinking its own score: an inflator's
// huge claim and a deflator's tiny one are both scored against the honest
// side of the comparison. A relative scale below cleanScale counts as
// numerically clean — a fit that good has no outliers to rank, only float
// noise.
//
//   - Leave-one-sensor-out: for each sensor i, refit the stretches with i
//     excluded (a rank-1 downdate of the cached Gram matrix, so n tiny k×k
//     solves) and compare i's reading against the prediction of the other
//     n−1 sensors. A sensor whose LOSO residual exceeds losoThreshold robust
//     scales s = 1.4826·median|r| (the MAD estimate of the residual spread)
//     is flagged and down-weighted in proportion t·s/|r| (floored at
//     losoDownWeight): unlike a plain Huber test this cannot be bought off
//     by a liar large enough to drag the joint fit toward itself, because
//     the liar never votes on its own replacement fit — while the graded
//     ramp keeps a borderline flag (which may be an honest sensor near a
//     source pass 1 mislocated) from erasing real evidence.
//
//   - Huber/IRLS: refit the stretches under the post-LOSO weights, measure
//     each sensor's relative residual r_i against the robust scale, and
//     down-weight sensors beyond the Huber knee by k·s/|r_i| — the
//     classical M-estimator weight — never above the LOSO cap. irlsIters
//     iteratively-reweighted solves at fixed positions re-estimate the
//     stretches under the shrinking weights.
//
// Searcher.Search applies the defense as a two-pass search: a plain
// pass finds the best composition, the multipliers are derived from its
// residuals, and the search reruns on the reweighted problem. Every step is
// a serial, pure function of the problem and the pass-1 result — no draws,
// no data races — so robust searches preserve the byte-identical
// worker-invariance contract of internal/exp unchanged.

package fit

import (
	"fmt"
	"math"
	"sort"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
)

// RobustMode selects whether a search applies the consistency-check defense.
type RobustMode int

const (
	// RobustOff runs the plain search (the zero value).
	RobustOff RobustMode = iota
	// RobustBoth runs the LOSO test first, then Huber IRLS on the result.
	RobustBoth
)

// String returns the mode's flag-style name.
func (m RobustMode) String() string {
	switch m {
	case RobustOff:
		return "off"
	case RobustBoth:
		return "both"
	}
	return fmt.Sprintf("RobustMode(%d)", int(m))
}

// ParseRobustMode maps a flag/JSON string onto a RobustMode. The empty
// string, "off" and "none" disable the defense.
func ParseRobustMode(s string) (RobustMode, error) {
	switch s {
	case "", "off", "none":
		return RobustOff, nil
	case "both":
		return RobustBoth, nil
	}
	return RobustOff, fmt.Errorf("fit: unknown robust mode %q (want off or both)", s)
}

// RobustConfig arms the robust-fitting defense. The zero value disables it.
type RobustConfig struct {
	// Mode selects the defense (off or both).
	Mode RobustMode
}

// The defense's tuning constants.
const (
	// huberK is the Huber knee in robust scales: residuals within k·scale
	// keep full weight, larger ones are down-weighted by k·scale/|r| (the
	// textbook constant for ~95% Gaussian efficiency).
	huberK = 1.5
	// irlsIters is how many reweighted stretch refits the Huber pass runs.
	irlsIters = 3
	// losoThreshold flags a sensor whose leave-one-out residual exceeds this
	// many robust scales.
	losoThreshold = 4
	// losoDownWeight is the smallest weight multiplier a flagged sensor can
	// keep: flagged sensors are down-weighted by
	// losoThreshold·scale/|residual|, floored here — small enough to
	// neutralize an egregious liar, nonzero so the problem's positive-weight
	// invariant holds.
	losoDownWeight = 0.05
)

// Enabled reports whether the config names an active defense mode.
func (c RobustConfig) Enabled() bool { return c.Mode != RobustOff }

// RobustReport describes what a robust reweighting pass decided.
type RobustReport struct {
	// Flagged holds the sample indices (in the problem's own layout, i.e.
	// compacted indices for a masked problem) the LOSO test down-weighted,
	// ascending.
	Flagged []int
	// Adjusted reports whether any multiplier moved below 1 — when false the
	// reweighted problem would be identical and the caller can skip pass 2.
	Adjusted bool
}

// multFloor keeps every robust multiplier strictly positive and finite, so
// reweighted problems always satisfy NewProblemWeighted's invariants.
const multFloor = 1e-3

// cleanScale is the relative-residual robust scale below which a fit counts
// as numerically exact: residuals that small are float noise, and shrinking
// weights over noise would make robust searches disagree with plain ones on
// clean data for no reason.
const cleanScale = 1e-9

// robustScale returns the MAD-based robust scale 1.4826·median|r| over the
// finite residuals. Non-finite entries (hostile readings that survived into
// the objective) are ignored here and treated as infinitely suspect by the
// callers. Returns 0 when fewer than two finite residuals exist or the
// median is (numerically) zero.
func robustScale(resid, scratch []float64) float64 {
	abs := scratch[:0]
	for _, r := range resid {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			continue
		}
		abs = append(abs, math.Abs(r))
	}
	if len(abs) < 2 {
		return 0
	}
	sort.Float64s(abs)
	med := abs[len(abs)/2]
	if len(abs)%2 == 0 {
		med = (abs[len(abs)/2-1] + abs[len(abs)/2]) / 2
	}
	return 1.4826 * med
}

// RobustMultipliers derives per-sample weight multipliers from the residuals
// of a fitted composition ev (typically the best result of a plain search
// over p). The returned slice aligns with p's samples; every entry is in
// [multFloor, 1]. It is a pure, serial function of its inputs — equal
// problems and evals yield bit-identical multipliers at any worker count.
func (s *Searcher) RobustMultipliers(p *Problem, ev Eval, rc RobustConfig) ([]float64, RobustReport, error) {
	n := len(p.points)
	k := len(ev.Positions)
	var rep RobustReport
	mult := make([]float64, n)
	for i := range mult {
		mult[i] = 1
	}
	if !rc.Enabled() || k == 0 {
		return mult, rep, nil
	}

	// Weighted kernel columns a_j = W·g(pos_j) at the fitted positions, the
	// Gram matrix G = AᵀA and projection d = Aᵀ(W·F′) the refits reuse.
	aw := make([][]float64, k)
	for j, pos := range ev.Positions {
		col := p.KernelColumn(pos)
		if p.weights != nil {
			for i, w := range p.weights {
				col[i] *= w
			}
		}
		aw[j] = col
	}
	gram := make([]float64, k*k)
	d := make([]float64, k)
	for j := 0; j < k; j++ {
		d[j] = mat.Dot(aw[j], p.wb)
		for l := j; l < k; l++ {
			v := mat.Dot(aw[j], aw[l])
			gram[j*k+l] = v
			gram[l*k+j] = v
		}
	}

	var ws mat.NNLSWorkspace
	x := make([]float64, k)
	resid := make([]float64, n)
	scratch := make([]float64, n)
	// relResid studentizes a residual: the misfit is scored relative to the
	// SMALLER of the reading and the model prediction (plus a floor q tied to
	// the mean level). Dividing by the smaller magnitude means neither an
	// inflator (huge reading, honest prediction) nor a deflator (tiny
	// reading, honest prediction) can shrink its own score by controlling the
	// denominator, while honest near-sink sensors with large absolute — but
	// small relative — misfit are left alone. The floor q keeps float noise
	// on quiet-field sensors from amplifying into phantom outliers.
	var q float64
	{
		var mean float64
		cnt := 0
		for _, v := range p.wb {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			mean += math.Abs(v)
			cnt++
		}
		if cnt > 0 {
			mean /= float64(cnt)
		}
		q = 0.2*mean + 1e-12
	}
	relResid := func(meas, pred float64) float64 {
		den := math.Min(math.Abs(meas), math.Abs(pred)) + q
		if math.IsNaN(den) || math.IsInf(den, 0) {
			den = q
		}
		return (meas - pred) / den
	}
	// residAt computes the relative base-weighted residual
	// r_i = relResid(w_i F′_i, w_i Σ x_j g_j) of the stretch vector x. The
	// base weights (not the evolving multipliers) keep residuals comparable
	// across IRLS iterations.
	residAt := func(x []float64) {
		for i := range resid {
			pred := 0.0
			for j := 0; j < k; j++ {
				if x[j] != 0 {
					pred += x[j] * aw[j][i]
				}
			}
			resid[i] = relResid(p.wb[i], pred)
		}
	}

	// Leave-one-sensor-out: exclude sample i by a rank-1 downdate of (G, d),
	// refit, and score i against the others' prediction.
	gi := make([]float64, k*k)
	di := make([]float64, k)
	xi := make([]float64, k)
	loso := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			aji := aw[j][i]
			di[j] = d[j] - aji*p.wb[i]
			for l := 0; l < k; l++ {
				gi[j*k+l] = gram[j*k+l] - aji*aw[l][i]
			}
		}
		finite := true
		for j := 0; j < k && finite; j++ {
			if math.IsNaN(di[j]) || math.IsInf(di[j], 0) {
				finite = false
			}
		}
		if !finite {
			// A non-finite reading poisons every downdate except its own;
			// score it maximally suspect and move on.
			loso[i] = math.Inf(1)
			continue
		}
		mat.NNLSGramInto(gi, di, xi, &ws)
		pred := 0.0
		for j := 0; j < k; j++ {
			if xi[j] != 0 {
				pred += xi[j] * aw[j][i]
			}
		}
		loso[i] = relResid(p.wb[i], pred)
	}
	if scale := robustScale(loso, scratch); scale > cleanScale {
		flagged := make([]int, 0, 4)
		for i, r := range loso {
			if math.IsNaN(r) {
				r = math.Inf(1)
			}
			if math.Abs(r) > losoThreshold*scale {
				flagged = append(flagged, i)
			}
		}
		// Keep enough sensors for the composition fit to stay
		// overdetermined; a test that flags half the field is telling us the
		// scale estimate broke, not that half the field lies.
		if len(flagged) > 0 && n-len(flagged) >= k+1 && len(flagged) <= n/2 {
			for _, i := range flagged {
				// Graded down-weight t·s/|r|: a sensor just past the
				// threshold keeps most of its weight (a borderline flag may
				// be an honest sensor near a source the pass-1 fit missed),
				// while an egregious liar collapses to the losoDownWeight
				// floor.
				r := math.Abs(loso[i])
				m := losoThreshold * scale / r
				if math.IsNaN(m) || m < losoDownWeight {
					m = losoDownWeight
				}
				mult[i] = m
			}
			rep.Flagged = flagged
		}
	}

	// IRLS: refit the stretches under the current multipliers, rescore
	// residuals, tighten the Huber weights, repeat.
	gm := make([]float64, k*k)
	dm := make([]float64, k)
	// Huber may only lower a multiplier below what LOSO left — never undo a
	// flag — so snapshot the post-LOSO values as per-sensor caps.
	losoCap := append([]float64(nil), mult...)
	for it := 0; it < irlsIters; it++ {
		for j := 0; j < k; j++ {
			dm[j] = 0
			for l := j; l < k; l++ {
				gm[j*k+l] = 0
			}
		}
		for i := 0; i < n; i++ {
			m2 := mult[i] * mult[i]
			wb := p.wb[i]
			if math.IsNaN(wb) || math.IsInf(wb, 0) {
				continue // hostile reading: keep it out of the refit
			}
			for j := 0; j < k; j++ {
				aji := aw[j][i]
				dm[j] += m2 * aji * wb
				for l := j; l < k; l++ {
					gm[j*k+l] += m2 * aji * aw[l][i]
				}
			}
		}
		for j := 0; j < k; j++ {
			for l := j + 1; l < k; l++ {
				gm[l*k+j] = gm[j*k+l]
			}
		}
		mat.NNLSGramInto(gm, dm, x, &ws)
		residAt(x)
		scale := robustScale(resid, scratch)
		if scale <= cleanScale {
			break // fit too clean to rank outliers — nothing to shrink
		}
		knee := huberK * scale
		for i, r := range resid {
			h := 1.0
			ar := math.Abs(r)
			if !(ar <= knee) { // NaN lands here too
				h = knee / ar // Inf/NaN residuals collapse to the floor
				if math.IsNaN(h) || h < multFloor {
					h = multFloor
				}
			}
			mult[i] = math.Min(losoCap[i], h)
		}
	}

	for i, m := range mult {
		if math.IsNaN(m) || m < multFloor {
			mult[i] = multFloor
		} else if m > 1 {
			mult[i] = 1
		}
		if mult[i] < 1 {
			rep.Adjusted = true
		}
	}
	return mult, rep, nil
}

// reweighted returns a copy of the problem with each sample's weight
// multiplied by mult, preserving the masked-layout bookkeeping so the coarse
// prestage still aligns with its full-layout fingerprint database.
func (p *Problem) reweighted(mult []float64) (*Problem, error) {
	if len(mult) != len(p.points) {
		return nil, fmt.Errorf("fit: %d samples but %d multipliers", len(p.points), len(mult))
	}
	w := make([]float64, len(p.points))
	for i := range w {
		base := 1.0
		if p.weights != nil {
			base = p.weights[i]
		}
		w[i] = base * mult[i]
	}
	p2, err := NewProblemWeighted(p.model, p.points, p.measured, w)
	if err != nil {
		return nil, err
	}
	p2.origIdx = p.origIdx
	p2.fullSamples = p.fullSamples
	return p2, nil
}

// searchRobust is the two-pass robust search: plain pass, residual-derived
// multipliers at its best composition, reweighted pass. When the
// multipliers come back all-ones the pass-1 result is returned untouched,
// so a robust search over clean data costs one residual analysis and
// changes nothing.
func (s *Searcher) searchRobust(p *Problem, candidates [][]geom.Point, opts Options) (Result, error) {
	inner := opts
	inner.Robust = RobustConfig{}
	res, err := s.Search(p, candidates, inner)
	if err != nil || len(res.Best) == 0 {
		return res, err
	}
	mult, rep, err := s.RobustMultipliers(p, res.Best[0], opts.Robust)
	if err != nil {
		return Result{}, err
	}
	if s.met.m != nil {
		s.met.robustPasses.Inc(0)
		s.met.robustFlagged.Add(0, uint64(len(rep.Flagged)))
	}
	if !rep.Adjusted {
		return res, nil
	}
	if s.met.m != nil {
		s.met.robustApplied.Inc(0)
	}
	p2, err := p.reweighted(mult)
	if err != nil {
		return Result{}, err
	}
	return s.Search(p2, candidates, inner)
}
