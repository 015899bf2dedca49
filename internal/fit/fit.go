// Package fit implements the paper's NLS parameter fitting (§4.A): given
// flux measurements F′ at a sparse set of sniffed nodes and the theoretical
// flux model, find the mobile-user positions and integrated stretch factors
// c_j = s_j/r that minimize ‖F − F′‖₂.
//
// The estimated flux is linear in the stretch factors once positions are
// fixed, so every position evaluation reduces to a non-negative least
// squares solve; the outer, genuinely non-convex search over positions uses
// candidate ranking — exhaustively over all Nᴷ compositions when feasible
// (exactly the filtering step of Algorithm 4.1), and by iterated conditional
// ranking otherwise. The inner solve runs on cached normal-equation
// quantities in per-worker scratch arenas (see gram.go), so steady-state
// composition evaluation is allocation-free.
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
)

// Problem is one fingerprinting instance: what the adversary knows.
type Problem struct {
	model    *fluxmodel.Model
	points   []geom.Point // positions of the sniffed nodes
	measured []float64    // flux readings F′ at those nodes
	weights  []float64    // per-sample weights applied inside the objective
	wb       []float64    // weighted measurement W·F′ (aliases measured when unweighted)

	// origIdx maps each (possibly compacted) sample back to its index in
	// the full sensor layout; nil means the identity. NewProblemMasked sets
	// it so the coarse prestage can align a masked problem with a
	// fingerprint database built over all sample points.
	origIdx []int
	// fullSamples is the sample count of the unmasked layout (len(points)
	// for unmasked problems, len(present) for masked ones); the coarse
	// prestage requires its fingerprint database to match it.
	fullSamples int
}

// NewProblem builds a Problem with unit weights (the plain ‖F − F′‖₂
// objective of Equation 4.1). The sample points and measurements must align
// and be non-empty.
func NewProblem(model *fluxmodel.Model, points []geom.Point, measured []float64) (*Problem, error) {
	return NewProblemWeighted(model, points, measured, nil)
}

// NewProblemWeighted builds a Problem whose objective is the weighted norm
// ‖W(F − F′)‖₂ with W = diag(weights). The flux model fits poorly within a
// couple of hops of a sink (§3.B), and under sparse sampling a single
// near-sink reading can otherwise dominate the objective, so relative
// weights (e.g. 1/(F′_i + q)) make the fit behave like the paper's
// error-rate metric. Pass nil weights for the unweighted objective; weights
// must otherwise align with points and be positive.
func NewProblemWeighted(model *fluxmodel.Model, points []geom.Point, measured, weights []float64) (*Problem, error) {
	if model == nil {
		return nil, errors.New("fit: nil model")
	}
	if len(points) == 0 {
		return nil, errors.New("fit: no sampling points")
	}
	if len(points) != len(measured) {
		return nil, fmt.Errorf("fit: %d points but %d measurements", len(points), len(measured))
	}
	if weights != nil {
		if len(weights) != len(points) {
			return nil, fmt.Errorf("fit: %d points but %d weights", len(points), len(weights))
		}
		for i, w := range weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("fit: weight[%d] = %v must be positive and finite", i, w)
			}
		}
		weights = append([]float64(nil), weights...)
	}
	p := &Problem{
		model:       model,
		points:      append([]geom.Point(nil), points...),
		measured:    append([]float64(nil), measured...),
		weights:     weights,
		fullSamples: len(points),
	}
	// Cache the weighted measurement once: every composition evaluation
	// needs it for projections and residuals.
	if weights == nil {
		p.wb = p.measured
	} else {
		p.wb = make([]float64, len(p.measured))
		for i, w := range weights {
			p.wb[i] = w * p.measured[i]
		}
	}
	return p, nil
}

// Measured returns a copy of the measurement vector F′.
func (p *Problem) Measured() []float64 { return append([]float64(nil), p.measured...) }

// KernelColumn returns the kernel vector g(sink, p_i) over the sample
// points. Candidate search precomputes these columns once per candidate.
func (p *Problem) KernelColumn(sink geom.Point) []float64 {
	return p.model.KernelVector(sink, p.points)
}

// Eval is the outcome of evaluating one composition of user positions.
type Eval struct {
	Positions []geom.Point // one position per user
	Stretches []float64    // fitted integrated stretch factors c_j = s_j/r
	Objective float64      // ‖F − F′‖₂ at the optimum over stretches
}

// Options configures the candidate search.
type Options struct {
	// Samples is the number of candidate positions drawn per user when the
	// caller does not supply explicit candidates (default 2000; the paper's
	// instant-localization experiment uses 10000).
	Samples int
	// TopM is how many best compositions / per-user positions to keep
	// (default 10, as in the paper).
	TopM int
	// MaxExhaustive caps the composition count for exhaustive enumeration;
	// above it the iterated conditional search runs instead (default 2e5).
	MaxExhaustive int
	// Seed randomizes the restart permutations; runs with equal seeds and
	// inputs are identical.
	Seed uint64
	// Workers bounds the goroutines evaluating candidates concurrently.
	// Candidate evaluations are independent, so parallel and serial runs
	// produce identical results. Zero means GOMAXPROCS; 1 forces serial.
	Workers int
	// Metrics, when non-nil, receives the search's work counters
	// (fit.search.calls, fit.search.columns, fit.nnls.solves,
	// fit.nnls.iters, and — with the coarse prestage on — fit.coarse.*).
	// Metrics are write-only: enabling them never changes search results,
	// and the counter totals are themselves worker-count-invariant because
	// every counted unit of work is. Nil disables instrumentation at the
	// cost of one branch per search.
	Metrics *obs.Metrics
	// Coarse, when non-nil, enables the coarse-to-fine prestage: candidates
	// are shortlisted to Coarse.TopK per user by fingerprint-cell score
	// before the exact Gram/NNLS ranking runs (see coarse.go and
	// internal/fingerprint). Nil runs the exact search over all candidates.
	Coarse *Coarse
	// Robust, when its Mode is set, arms the robust-fitting defense against
	// lying sensors (see robust.go): the search runs twice, deriving
	// per-sensor trust multipliers from the first pass's residuals
	// (leave-one-sensor-out flags, then Huber IRLS weights) and re-ranking
	// on the reweighted problem. The zero value keeps the plain single-pass
	// search. Robust searches remain deterministic and worker-count
	// invariant — the reweighting is a serial, pure function of the pass-1
	// result.
	Robust RobustConfig
}

// The iterated conditional search keeps the best of conditionalRestarts
// greedy initializations (one with a single user), each refined by
// conditionalSweeps sweeps: restarts in permuted user order escape most
// local minima, e.g. two estimates collapsing onto one strong user.
const (
	conditionalSweeps   = 3
	conditionalRestarts = 3
)

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 2000
	}
	if o.TopM <= 0 {
		o.TopM = 10
	}
	if o.MaxExhaustive <= 0 {
		o.MaxExhaustive = 200000
	}
	return o
}

// Result is the outcome of a localization search.
type Result struct {
	// Best holds the TopM best compositions in ascending objective order.
	Best []Eval
	// PerUser[j] holds user j's TopM best candidate positions with the
	// objective each achieved in its best composition; the SMC filter
	// consumes exactly this ranking.
	PerUser [][]RankedPosition
	// Exhaustive reports whether every composition was enumerated (true) or
	// the iterated conditional approximation ran (false).
	Exhaustive bool
}

// RankedPosition is one candidate position with its best known objective.
type RankedPosition struct {
	Pos       geom.Point
	Index     int     // index of the position in the user's candidate list
	Stretch   float64 // fitted c for this user in that composition
	Objective float64
}

// Localize draws Samples random candidate positions per user inside the
// field and searches for the K-user composition best explaining the
// measurements. It is the paper's instant-localization procedure (§5.A).
func Localize(p *Problem, numUsers int, opts Options, src *rng.Source) (Result, error) {
	opts = opts.withDefaults()
	if numUsers <= 0 {
		return Result{}, fmt.Errorf("fit: numUsers must be positive, got %d", numUsers)
	}
	field := p.model.Field()
	cands := make([][]geom.Point, numUsers)
	for j := range cands {
		cands[j] = make([]geom.Point, opts.Samples)
		for i := range cands[j] {
			cands[j][i] = src.InRect(field)
		}
	}
	return SearchCandidates(p, cands, opts)
}

// SearchCandidates ranks compositions built from explicit per-user candidate
// lists. The SMC tracker calls the equivalent Searcher.Search with a
// long-lived Searcher so the arenas survive across rounds.
func SearchCandidates(p *Problem, candidates [][]geom.Point, opts Options) (Result, error) {
	return NewSearcher().Search(p, candidates, opts)
}

// insertTopM inserts ev into the ascending-by-objective slice best, keeping
// at most m entries.
func insertTopM(best []Eval, ev Eval, m int) []Eval {
	pos := sort.Search(len(best), func(i int) bool { return best[i].Objective > ev.Objective })
	if pos >= m {
		return best
	}
	best = append(best, Eval{})
	copy(best[pos+1:], best[pos:])
	best[pos] = ev
	if len(best) > m {
		best = best[:m]
	}
	return best
}
