// Coarse-to-fine candidate search.
//
// The exact search (search.go) pays one kernel column plus its share of
// Gram/NNLS work for every candidate of every user — the candidates×sensors
// scaling wall of the paper's Algorithm 4.1. The coarse prestage here cuts
// the candidate set before that cost is paid: a fingerprint database
// (internal/fingerprint) holds the signature column of every grid cell, each
// cell is scored once per search against the observation with a matched
// filter, and only the TopK candidates per user whose containing cells score
// highest proceed to the exact evaluator.
//
// The cell score is the energy explained by the best non-negative
// single-user fit along the cell's signature, max(⟨Wg, WF′⟩, 0)²/‖Wg‖² —
// exactly the k=1 NNLS objective gap, so ranking cells by it is ranking
// them by how well a lone user at the cell center would explain the
// residual-free observation. It is deliberately single-user (joint effects
// are the fine stage's job) and deliberately cheap: one pass over the
// column, no solve.
//
// Determinism: cell scores are pure functions of (cell, observation) written
// into index-disjoint slots; candidate→cell assignment breaks distance ties
// to the lowest cell index (fingerprint.DB.CellOf); the shortlist selection
// orders by (score descending, candidate index ascending) and the surviving
// indices are re-sorted ascending before the exact sub-search, so the
// sub-search sees candidates in their original relative order. With TopK ≥ the
// candidate count the shortlist is the identity and the whole pipeline —
// scoring, selection, sub-search, index remap — reproduces the exact search
// byte for byte, which is what the differential suite in coarse_test.go
// pins.
package fit

import (
	"errors"
	"fmt"
	"sort"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/par"
)

// Coarse configures the coarse-to-fine prestage of a search: candidates are
// shortlisted by the matched-filter score of their fingerprint cell before
// the exact Gram/NNLS ranking runs. The database must be built over the
// same model and full (unmasked) sample-point layout as the Problem;
// Searcher.Search rejects a mismatched sample count.
type Coarse struct {
	// DB is the fingerprint database (required).
	DB *fingerprint.DB
	// TopK is the shortlist size per user; <= 0 takes
	// fingerprint.DefaultTopK. TopK at or above a user's candidate count
	// keeps every candidate, degrading that user to the exact search.
	TopK int
}

// coarseMaxPasses caps the successive-cancellation passes of the cell
// scoring: one pass per user recovers each user's region in turn, but past
// a few users the residual is noise and further passes only cost time.
const coarseMaxPasses = 4

// scoreSignature returns the matched-filter score of one full-length
// fingerprint column against the problem's weighted observation:
// max(⟨wcol, wb⟩, 0)² / ⟨wcol, wcol⟩ with wcol the weighted column — the
// observation energy a lone non-negative user along this signature would
// explain. Masked problems read the column through origIdx so the compacted
// samples align with the database's build-time layout. Columns orthogonal
// to (or anti-correlated with) the observation score zero.
func (p *Problem) scoreSignature(col []float64) float64 {
	score, _ := p.scoreSignatureRHS(col, p.wb)
	return score
}

// scoreSignatureRHS is scoreSignature against an arbitrary weighted
// right-hand side (the observation itself, or a cancellation residual in
// the same compacted sample space). It also returns the fitted non-negative
// single-user coefficient x = max(proj, 0)/norm2, which subtractSignature
// uses to peel the signature off the residual.
func (p *Problem) scoreSignatureRHS(col, rhs []float64) (score, x float64) {
	var norm2, proj float64
	if p.origIdx == nil && p.weights == nil {
		for i, b := range rhs {
			v := col[i]
			norm2 += v * v
			proj += v * b
		}
	} else {
		for i := range p.points {
			src := i
			if p.origIdx != nil {
				src = p.origIdx[i]
			}
			v := col[src]
			if p.weights != nil {
				v *= p.weights[i]
			}
			norm2 += v * v
			proj += v * rhs[i]
		}
	}
	if norm2 == 0 || proj <= 0 {
		return 0, 0
	}
	return proj * proj / norm2, proj / norm2
}

// scoreColNorm is the clean-path scoreSignatureRHS: no weights, no mask,
// and the column's squared norm precomputed by the database. The projection
// runs through mat.Dot's four-lane order, so the score agrees with the
// general path's to rounding, not bit for bit; which path scores a problem
// depends on the problem alone, so its ranking stays deterministic.
func scoreColNorm(col, rhs []float64, norm2 float64) (score, x float64) {
	proj := mat.Dot(col, rhs)
	if norm2 == 0 || proj <= 0 {
		return 0, 0
	}
	return proj * proj / norm2, proj / norm2
}

// subtractSignature subtracts x times the weighted column from rhs in
// place: the cancellation step between scoring passes.
func (p *Problem) subtractSignature(col []float64, x float64, rhs []float64) {
	if p.origIdx == nil && p.weights == nil {
		for i := range rhs {
			rhs[i] -= x * col[i]
		}
		return
	}
	for i := range rhs {
		src := i
		if p.origIdx != nil {
			src = p.origIdx[i]
		}
		v := col[src]
		if p.weights != nil {
			v *= p.weights[i]
		}
		rhs[i] -= x * v
	}
}

// scoreCells fills scores with the per-cell shortlist scores for up to
// `users` mobile users: a matched-filter pass over every cell, then — for
// multi-user problems — successive cancellation rounds that peel the
// best-scoring signature off the observation and re-score the residual.
// Each pass's scores are normalized to that pass's maximum before merging
// with a per-cell max: the strongest user's flux otherwise dominates every
// raw score and all users' shortlists crowd into its region, while after
// normalization each cancellation pass lifts its own user's region to the
// top of the ranking. Every pass is deterministic: per-cell scores are pure
// functions written into index-disjoint slots, and the peeled cell is the
// serial argmax with equal scores resolving to the lowest cell index.
func (s *Searcher) scoreCells(p *Problem, db *fingerprint.DB, users, workers int, scores []float64) {
	cells := db.Cells()
	passes := min(users, coarseMaxPasses)
	rhs := growFloats(&s.coarseRHS, len(p.wb))
	copy(rhs, p.wb)
	pass := growFloats(&s.passScores, cells)
	for c := range scores {
		scores[c] = 0
	}
	// Unweighted, unmasked problems score against the raw columns, whose
	// squared norms the database caches at build time — that halves the
	// per-pass dot work.
	clean := p.origIdx == nil && p.weights == nil
	score := func(c int) (float64, float64) {
		if clean {
			return scoreColNorm(db.Column(c), rhs, db.ColumnNorm2(c))
		}
		return p.scoreSignatureRHS(db.Column(c), rhs)
	}
	for pi := 0; pi < passes; pi++ {
		par.For(cells, workers, func(_, c int) {
			pass[c], _ = score(c)
		})
		bestCell, bestScore := -1, 0.0
		for c, sc := range pass {
			if sc > bestScore {
				bestScore, bestCell = sc, c
			}
		}
		if bestCell < 0 {
			break // residual fully explained (or observation empty)
		}
		for c, sc := range pass {
			if norm := sc / bestScore; norm > scores[c] {
				scores[c] = norm
			}
		}
		if pi == passes-1 {
			break
		}
		_, x := score(bestCell)
		p.subtractSignature(db.Column(bestCell), x, rhs)
	}
}

// searchCoarse runs the coarse-to-fine pipeline: score cells, shortlist
// TopK candidates per user, run the exact search on the shortlists, and
// remap the per-user ranking indices back to the caller's candidate lists.
func (s *Searcher) searchCoarse(p *Problem, candidates [][]geom.Point, opts Options) (Result, error) {
	db := opts.Coarse.DB
	if db == nil {
		return Result{}, errors.New("fit: coarse search without a fingerprint database")
	}
	if db.NumSamples() != p.fullSamples {
		return Result{}, fmt.Errorf("fit: fingerprint database built over %d sample points, problem observes %d",
			db.NumSamples(), p.fullSamples)
	}
	topK := opts.Coarse.TopK
	if topK <= 0 {
		topK = fingerprint.DefaultTopK
	}

	// Phase 1: score every cell against this observation (with successive
	// cancellation for multi-user problems; see scoreCells). The score map
	// is shared by all users and worker-count-invariant.
	cells := db.Cells()
	scores := growFloats(&s.cellScores, cells)
	s.scoreCells(p, db, len(candidates), opts.Workers, scores)

	// Phase 2: shortlist per user. Selection orders candidates by
	// (cell score descending, index ascending) — the index tie-break makes
	// equal-scoring candidates, including the all-tied degenerate
	// observation, shortlist identically on every run — then re-sorts the
	// survivors ascending so the sub-search sees them in original order.
	k := len(candidates)
	totalCands, totalShort := 0, 0
	for _, cs := range candidates {
		totalCands += len(cs)
		totalShort += min(topK, len(cs))
	}
	if cap(s.coarseArena) < totalShort {
		s.coarseArena = make([]geom.Point, totalShort)
		s.coarseIdxArena = make([]int, totalShort)
	}
	if cap(s.coarseCands) < k {
		s.coarseCands = make([][]geom.Point, k)
		s.coarseIdx = make([][]int, k)
	}
	s.coarseCands = s.coarseCands[:k]
	s.coarseIdx = s.coarseIdx[:k]
	off := 0
	for j, cs := range candidates {
		nc := len(cs)
		kk := min(topK, nc)
		// Candidate → containing cell → score. The cell lookup is a pure
		// function of the candidate position.
		candScores := growFloats(&s.candScores, nc)
		par.For(nc, opts.Workers, func(_, i int) {
			candScores[i] = scores[db.CellOf(cs[i])]
		})
		if cap(s.coarseOrder) < nc {
			s.coarseOrder = make([]int, nc)
		}
		ord := s.coarseOrder[:nc]
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool {
			if candScores[ord[a]] != candScores[ord[b]] {
				return candScores[ord[a]] > candScores[ord[b]]
			}
			return ord[a] < ord[b]
		})
		sel := ord[:kk]
		sort.Ints(sel)
		short := s.coarseArena[off : off : off+kk]
		idx := s.coarseIdxArena[off : off : off+kk]
		for _, i := range sel {
			short = append(short, cs[i])
			idx = append(idx, i)
		}
		s.coarseCands[j] = short
		s.coarseIdx[j] = idx
		off += kk
	}
	if s.met.m != nil {
		s.met.knnProbes.Add(0, uint64(totalCands))
		s.met.shortlisted.Add(0, uint64(totalShort))
		s.met.exactAvoided.Add(0, uint64(totalCands-totalShort))
	}

	// Phase 3: exact search over the shortlists, then remap the per-user
	// ranking indices back into the caller's candidate lists (the SMC
	// update phase indexes prediction origins by them).
	s.prepare(p, s.coarseCands, opts.Workers)
	res := s.searchBody(p, s.coarseCands, opts)
	for j := range res.PerUser {
		idx := s.coarseIdx[j]
		for t := range res.PerUser[j] {
			res.PerUser[j][t].Index = idx[res.PerUser[j][t].Index]
		}
	}
	return res, nil
}
