package fit

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/par"
	"fluxtrack/internal/rng"
)

// Searcher owns every reusable buffer of the candidate-composition search:
// the per-candidate column caches (one arena for all weighted columns), one
// evalScratch per worker, and the objective buffers of the conditional scan.
// A zero-effort NewSearcher is ready to use; the first search sizes the
// arenas and subsequent searches of similar shape reuse them, which is how
// the SMC tracker keeps its per-round filtering step allocation-flat: it
// holds one Searcher for its lifetime and runs every predict/filter round
// through it.
//
// A Searcher must not be used from multiple goroutines concurrently (it
// spawns and joins its own workers internally; see Options.Workers).
type Searcher struct {
	colArena []float64   // backing storage for every candidate's wcol
	cands    [][]candCol // per-user candidate caches, rebuilt per search
	scratch  []*evalScratch

	// Conditional-scan buffers, indexed by candidate.
	objs    []float64
	stretch []float64

	// Exhaustive-scan per-(worker, candidate) best objective/stretch pairs.
	bestArena []float64

	// One-shot Evaluate buffers.
	oneShot  []candCol
	oneArena []float64

	// Coarse-prestage buffers (see coarse.go): per-cell and per-candidate
	// matched-filter scores, the selection order, and the arena-backed
	// per-user shortlists with their original-index maps.
	cellScores     []float64
	passScores     []float64
	coarseRHS      []float64
	candScores     []float64
	coarseOrder    []int
	coarseArena    []geom.Point
	coarseIdxArena []int
	coarseCands    [][]geom.Point
	coarseIdx      [][]int

	// met holds the bound observability handles (see SetMetrics); the zero
	// value is the disabled instrument set, costing one nil branch per site.
	met searchMetrics
}

// NewSearcher returns an empty Searcher.
func NewSearcher() *Searcher { return &Searcher{} }

// searchMetrics caches the Searcher's counter handles so the hot paths
// never pay a registry lookup.
type searchMetrics struct {
	m       *obs.Metrics
	calls   *obs.Counter // fit.search.calls: Search/Evaluate invocations
	columns *obs.Counter // fit.search.columns: candidate kernel columns filled
	solves  *obs.Counter // fit.nnls.solves: composition NNLS solves
	iters   *obs.Counter // fit.nnls.iters: NNLS warm-start rounds and active-set iterations

	// Coarse-prestage counters, only advanced when Options.Coarse is set.
	// fit.coarse.knn_probes: candidate→cell lookups (DB.CellOf calls). The
	// name is kept from the former nearest-neighbour lookup because the
	// benchmark ledger reads it.
	knnProbes    *obs.Counter
	shortlisted  *obs.Counter // fit.coarse.shortlist: candidates surviving the prestage
	exactAvoided *obs.Counter // fit.coarse.exact_avoided: candidates the exact stage skipped

	// Robust-defense counters, only advanced when Options.Robust is armed.
	robustPasses  *obs.Counter // fit.robust.passes: robust searches run
	robustApplied *obs.Counter // fit.robust.applied: searches that actually reweighted
	robustFlagged *obs.Counter // fit.robust.flagged: sensors LOSO down-weighted
}

// SetMetrics binds (or, with nil, unbinds) the Searcher's work counters.
// Search also binds lazily from Options.Metrics, but callers that go
// through Evaluate/EvaluateWorkers only (the SMC incumbent fit) must bind
// explicitly. Rebinding to the same registry is a no-op.
func (s *Searcher) SetMetrics(m *obs.Metrics) {
	if m == nil {
		s.met = searchMetrics{}
		return
	}
	if s.met.m == m {
		return
	}
	s.met = searchMetrics{
		m:             m,
		calls:         m.Counter("fit.search.calls"),
		columns:       m.Counter("fit.search.columns"),
		solves:        m.Counter("fit.nnls.solves"),
		iters:         m.Counter("fit.nnls.iters"),
		knnProbes:     m.Counter("fit.coarse.knn_probes"),
		shortlisted:   m.Counter("fit.coarse.shortlist"),
		exactAvoided:  m.Counter("fit.coarse.exact_avoided"),
		robustPasses:  m.Counter("fit.robust.passes"),
		robustApplied: m.Counter("fit.robust.applied"),
		robustFlagged: m.Counter("fit.robust.flagged"),
	}
}

// WorkTotals returns the cumulative NNLS solve and active-set iteration
// counts across every worker scratch this Searcher has created. The SMC
// tracker reads it before and after a round's searches to attribute NNLS
// effort to the round's trace span; totals are worker-count-invariant
// because each composition is solved exactly once no matter the sharding.
func (s *Searcher) WorkTotals() (solves, iters uint64) {
	for _, sc := range s.scratch {
		solves += sc.ws.Solves
		iters += sc.ws.Iters
	}
	return solves, iters
}

// recordWork flushes the NNLS work performed since the given baseline into
// the bound counters. No-op when metrics are unbound.
func (s *Searcher) recordWork(solves0, iters0 uint64) {
	if s.met.m == nil {
		return
	}
	solves1, iters1 := s.WorkTotals()
	s.met.solves.Add(0, solves1-solves0)
	s.met.iters.Add(0, iters1-iters0)
}

// growFloats resizes *buf to length n, reusing its capacity when possible.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// EvaluateWorkers fits the stretch factors for the given positions in the
// Searcher's reusable buffers (after warm-up only the returned Eval
// allocates), computing the per-position kernel columns on up to workers
// goroutines (each column is a pure function of its position, written into
// an index-disjoint arena slot, so the result is worker-count-invariant).
// The SMC tracker's incumbent fit runs here with one column per tracked
// user — in the §5.C many-user regime that is the widest loop of an idle
// round; its result gates the tracker's active-set selection.
func (s *Searcher) EvaluateWorkers(p *Problem, positions []geom.Point, workers int) (Eval, error) {
	if len(positions) == 0 {
		return Eval{}, errors.New("fit: no candidate positions")
	}
	n, k := len(p.points), len(positions)
	var solves0, iters0 uint64
	if s.met.m != nil {
		s.met.calls.Inc(0)
		s.met.columns.Add(0, uint64(k))
		solves0, iters0 = s.WorkTotals()
	}
	if cap(s.oneArena) < k*n {
		s.oneArena = make([]float64, k*n)
	}
	if cap(s.oneShot) < k {
		s.oneShot = make([]candCol, k)
	}
	cc := s.oneShot[:k]
	par.For(k, workers, func(_, j int) {
		cc[j].wcol = s.oneArena[j*n : (j+1)*n : (j+1)*n]
		p.fillCandCol(positions[j], &cc[j])
	})
	sc := s.scratchSet(1, n, k)[0]
	sc.setK(k)
	for j := range cc {
		sc.setCol(j, &cc[j])
	}
	obj := sc.solve(p)
	s.recordWork(solves0, iters0)
	return makeEval(positions, sc.x[:k], obj), nil
}

// Search ranks compositions built from explicit per-user candidate lists,
// exactly like the package-level SearchCandidates but reusing the
// Searcher's arenas across calls.
func (s *Searcher) Search(p *Problem, candidates [][]geom.Point, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if len(candidates) == 0 {
		return Result{}, errors.New("fit: no users")
	}
	for j, c := range candidates {
		if len(c) == 0 {
			return Result{}, fmt.Errorf("fit: user %d has no candidates", j)
		}
	}
	if opts.Metrics != nil {
		s.SetMetrics(opts.Metrics)
	}
	var solves0, iters0 uint64
	if s.met.m != nil {
		s.met.calls.Inc(0)
		solves0, iters0 = s.WorkTotals()
		defer func() { s.recordWork(solves0, iters0) }()
	}
	if opts.Robust.Enabled() {
		return s.searchRobust(p, candidates, opts)
	}
	if opts.Coarse != nil {
		return s.searchCoarse(p, candidates, opts)
	}
	s.prepare(p, candidates, opts.Workers)
	return s.searchBody(p, candidates, opts), nil
}

// searchBody picks and runs the exact search strategy over prepared
// candidate lists: exhaustive enumeration when the composition count fits
// under MaxExhaustive, the iterated conditional approximation otherwise.
// The caller must have run prepare on exactly these candidate lists.
func (s *Searcher) searchBody(p *Problem, candidates [][]geom.Point, opts Options) Result {
	total := 1
	overflow := false
	for _, cs := range candidates {
		if total > opts.MaxExhaustive/len(cs) {
			overflow = true
		} else {
			total *= len(cs)
		}
	}
	if !overflow && total <= opts.MaxExhaustive {
		return s.searchExhaustive(p, candidates, total, opts)
	}
	return s.searchConditional(p, candidates, opts)
}

// prepare (re)builds the per-candidate caches. At the paper's 10,000
// samples per user this loop dominates instant localization, and each
// column is a pure function of its candidate, so it shards cleanly across
// workers with results written into index-disjoint slots: contiguous
// candidate chunks go through the batched fluxmodel.KernelMatrixInto and a
// finishing pass applies the weights and Gram scalars. All weighted columns
// live in one arena that survives across searches.
func (s *Searcher) prepare(p *Problem, candidates [][]geom.Point, workers int) {
	n := len(p.points)
	total := 0
	for _, cs := range candidates {
		total += len(cs)
	}
	if s.met.m != nil {
		s.met.columns.Add(0, uint64(total))
	}
	if cap(s.colArena) < total*n {
		s.colArena = make([]float64, total*n)
	}
	arena := s.colArena[:total*n]
	if cap(s.cands) < len(candidates) {
		old := s.cands
		s.cands = make([][]candCol, len(candidates))
		copy(s.cands, old)
	}
	s.cands = s.cands[:len(candidates)]
	off := 0
	const prepChunk = 16
	for j, cs := range candidates {
		cs := cs
		if cap(s.cands[j]) < len(cs) {
			s.cands[j] = make([]candCol, len(cs))
		}
		s.cands[j] = s.cands[j][:len(cs)]
		colj := s.cands[j]
		base := off
		for i := range colj {
			colj[i].wcol = arena[off : off+n : off+n]
			off += n
		}
		chunks := (len(cs) + prepChunk - 1) / prepChunk
		par.For(chunks, workers, func(_, ci int) {
			lo := ci * prepChunk
			hi := min(lo+prepChunk, len(cs))
			p.model.KernelMatrixInto(cs[lo:hi], p.points, arena[base+lo*n:base+hi*n])
			for i := lo; i < hi; i++ {
				p.finishCandCol(&colj[i])
			}
		})
	}
}

// scratchSet returns nw worker scratches sized for (n, kMax), growing the
// pool as needed. Every returned scratch has its composition cache
// invalidated: the candidate pool may have been rewritten in place since
// the last search, so cached *candCol pointers must not be trusted across
// prepare calls.
func (s *Searcher) scratchSet(nw, n, kMax int) []*evalScratch {
	for len(s.scratch) < nw {
		s.scratch = append(s.scratch, &evalScratch{})
	}
	set := s.scratch[:nw]
	for _, sc := range set {
		sc.ensure(n, kMax)
	}
	return set
}

// searchExhaustive evaluates every composition — the literal filtering step
// of Algorithm 4.1. Compositions are enumerated by linear index (decoded
// mixed-radix) and sharded across workers; each worker keeps local top-M
// and per-user bests that merge deterministically afterwards. The last user
// varies fastest in the decode, so consecutive evaluations reuse all but
// one cached Gram row.
//
// Per-user bests live in flat per-worker (objective, stretch) arrays in the
// Searcher's arena, not in maps of materialized Evals: every candidate's
// best composition improves many times over the scan, and map inserts plus
// an Eval allocation per improvement used to make the exhaustive path
// allocate O(total candidates) per call. Now only compositions entering the
// global top-M materialize, which is what keeps a steady-state tracker Step
// allocation-flat in N.
func (s *Searcher) searchExhaustive(p *Problem, candidates [][]geom.Point, total int, opts Options) Result {
	k := len(candidates)
	workers := par.Resolve(total, opts.Workers)
	scratches := s.scratchSet(workers, len(p.points), k)

	nCands := 0
	for _, cs := range candidates {
		nCands += len(cs)
	}
	// Two floats per (worker, candidate): best objective and the user's
	// fitted stretch in that composition, +Inf objective meaning unseen.
	if cap(s.bestArena) < 2*workers*nCands {
		s.bestArena = make([]float64, 2*workers*nCands)
	}
	arena := s.bestArena[:2*workers*nCands]
	workerObjs := func(w, j int) ([]float64, []float64) {
		off := w * 2 * nCands
		for o := 0; o < j; o++ {
			off += 2 * len(candidates[o])
		}
		nc := len(candidates[j])
		return arena[off : off+nc : off+nc], arena[off+nc : off+2*nc : off+2*nc]
	}

	type partial struct {
		best []Eval
	}
	partials := make([]partial, workers)
	par.For(workers, workers, func(w, _ int) {
		pt := &partials[w]
		objsByUser := make([][]float64, k)
		strsByUser := make([][]float64, k)
		for j := range objsByUser {
			objs, strs := workerObjs(w, j)
			for i := range objs {
				objs[i] = math.Inf(1)
			}
			objsByUser[j], strsByUser[j] = objs, strs
		}
		sc := scratches[w]
		sc.setK(k)
		idx := make([]int, k)
		positions := make([]geom.Point, k)
		lo := total * w / workers
		hi := total * (w + 1) / workers
		for lin := lo; lin < hi; lin++ {
			// Decode the linear index into per-user candidate indices.
			rem := lin
			for j := k - 1; j >= 0; j-- {
				idx[j] = rem % len(candidates[j])
				rem /= len(candidates[j])
			}
			for j, i := range idx {
				sc.setCol(j, &s.cands[j][i])
			}
			obj := sc.solve(p)

			// Materialize an Eval only when this composition enters the
			// top-M: the steady-state path allocates nothing.
			if len(pt.best) < opts.TopM || obj < pt.best[len(pt.best)-1].Objective {
				for j, i := range idx {
					positions[j] = candidates[j][i]
				}
				pt.best = insertTopM(pt.best, makeEval(positions, sc.x[:k], obj), opts.TopM)
			}
			for j, i := range idx {
				if obj < objsByUser[j][i] {
					objsByUser[j][i] = obj
					strsByUser[j][i] = sc.x[j]
				}
			}
		}
	})

	var best []Eval
	for w := range partials {
		for _, ev := range partials[w].best {
			best = insertTopM(best, ev, opts.TopM)
		}
	}
	// Merge worker bests into worker 0's arrays, ascending worker order with
	// strict improvement — ties keep the lowest worker, i.e. the lowest
	// linear index, exactly as the sequential scan would.
	for w := 1; w < workers; w++ {
		for j := 0; j < k; j++ {
			objs0, strs0 := workerObjs(0, j)
			objsW, strsW := workerObjs(w, j)
			for i := range objs0 {
				if objsW[i] < objs0[i] {
					objs0[i] = objsW[i]
					strs0[i] = strsW[i]
				}
			}
		}
	}

	res := Result{Best: best, Exhaustive: true, PerUser: make([][]RankedPosition, k)}
	for j := 0; j < k; j++ {
		objs, strs := workerObjs(0, j)
		ranked := make([]RankedPosition, 0, min(opts.TopM, len(objs)))
		res.PerUser[j] = appendTopM(ranked, candidates[j], objs, strs, opts.TopM)
	}
	return res
}

// rankBefore reports whether a candidate with objective oa and index ia
// ranks ahead of one with (ob, ib): lower objective first, then lower index.
// A NaN objective ranks after every number, +Inf included, so the order is
// total and a ranking that meets NaN objectives is still defined.
func rankBefore(oa float64, ia int, ob float64, ib int) bool {
	if oa < ob {
		return true
	}
	if oa > ob {
		return false
	}
	if an, bn := math.IsNaN(oa), math.IsNaN(ob); an != bn {
		return bn
	}
	return ia < ib
}

// appendTopM appends to dst the topM best of a user's candidates by
// rankBefore, given each candidate's objective and fitted stretch, and
// returns the extended slice. It selects by bounded insertion instead of
// sorting all N candidates: once topM entries are held, a candidate costs
// one comparison against the current last entry unless it enters the list.
// Both search strategies rank through it; unseen candidates (+Inf, which a
// full exhaustive scan cannot leave) rank last among the numbers.
func appendTopM(dst []RankedPosition, cands []geom.Point, objs, strs []float64, topM int) []RankedPosition {
	start := len(dst)
	m := min(topM, len(objs))
	for i, o := range objs {
		if len(dst)-start == m {
			last := dst[len(dst)-1]
			if !rankBefore(o, i, last.Objective, last.Index) {
				continue
			}
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, RankedPosition{})
		at := len(dst) - 1
		for at > start && rankBefore(o, i, dst[at-1].Objective, dst[at-1].Index) {
			dst[at] = dst[at-1]
			at--
		}
		dst[at] = RankedPosition{Pos: cands[i], Index: i, Stretch: strs[i], Objective: o}
	}
	return dst
}

// searchConditional approximates the exhaustive ranking: users are
// initialized greedily one at a time (mirroring the recursive briefing of
// §3.C) and then refined by coordinate sweeps, re-ranking each user's
// candidates while the other users sit at their incumbent best positions.
// Multiple restarts with permuted initialization order guard against the
// local minima of this coordinate descent; the restart with the lowest
// final objective wins.
//
// A scan of user j is a pure function of j and the incumbent index of
// every other assigned user, so the call keeps a scanMemo over that key
// and reuses the stored ranking when a key repeats — within a restart once
// a sweep moves no incumbent, and across restarts that revisit the same
// incumbents. The reuse is exact: every Gram entry is a pure function of
// its candidate pair, the key fixes the slot layout, and the NNLS solve
// keeps no state between calls, so a rescan would recompute the same bits.
// The memo lives for this call only: a later search, or the second pass of
// a robust search over a reweighted problem, starts with an empty one.
func (s *Searcher) searchConditional(p *Problem, candidates [][]geom.Point, opts Options) Result {
	k := len(candidates)
	restarts := conditionalRestarts
	if k == 1 {
		restarts = 1 // a single sweep already ranks every candidate exactly
	}
	src := rng.New(opts.Seed ^ 0xf1a7)
	memo := newScanMemo(k, restarts*k*(1+conditionalSweeps), opts.TopM)

	var best Result
	bestObj := math.Inf(1)
	for attempt := 0; attempt < restarts; attempt++ {
		order := src.Perm(k)
		res := s.runConditional(p, candidates, order, opts, memo)
		if len(res.Best) > 0 && res.Best[0].Objective < bestObj {
			best, bestObj = res, res.Best[0].Objective
		}
	}
	return best
}

// runConditional performs one greedy initialization (in the given user
// order) followed by refinement sweeps. Rankings are materialized only on
// the final sweep; earlier passes just move the incumbents.
func (s *Searcher) runConditional(p *Problem, candidates [][]geom.Point, order []int, opts Options, memo *scanMemo) Result {
	k := len(candidates)
	bestIdx := make([]int, k)
	assigned := make([]bool, k)

	// Greedy initialization: place users one at a time, each minimizing the
	// joint objective with the already-placed ones.
	for _, j := range order {
		s.scanUser(p, candidates, bestIdx, assigned, j, opts, memo)
		assigned[j] = true
	}

	// Refinement sweeps with full per-user rankings on the final sweep,
	// where each user's update also offers the incumbent composition (in
	// user order, so Positions and Stretches align user-by-user) to Best.
	var res Result
	res.PerUser = make([][]RankedPosition, k)
	for sweep := 0; sweep < conditionalSweeps; sweep++ {
		final := sweep == conditionalSweeps-1
		for j := 0; j < k; j++ {
			ranked := s.scanUser(p, candidates, bestIdx, assigned, j, opts, memo)
			if final {
				res.PerUser[j] = append([]RankedPosition(nil), ranked...)
				res.Best = insertTopM(res.Best, s.incumbentEval(p, candidates, bestIdx), opts.TopM)
			}
		}
	}
	return res
}

// scanUser ranks user j's candidates with every other assigned user fixed
// at its incumbent position, updating bestIdx[j] to the winner (unchanged
// when no candidate has a finite objective), and returns the topM ranking.
// The ranking is read-only: it may be the memo's stored copy. On a memo
// miss the fixed users occupy the leading scratch slots, factored once per
// worker, and user j's candidates the last one, four at a time
// (solveLast4), so per candidate only one Gram row and one Cholesky row are
// computed.
func (s *Searcher) scanUser(p *Problem, candidates [][]geom.Point, bestIdx []int, assigned []bool,
	j int, opts Options, memo *scanMemo) []RankedPosition {
	ranked, ok := memo.find(j, bestIdx, assigned)
	if !ok {
		k := len(candidates)
		fixed := 0
		for o := 0; o < k; o++ {
			if o != j && assigned[o] {
				fixed++
			}
		}
		kk := fixed + 1
		nc := len(candidates[j])
		objs := growFloats(&s.objs, nc)
		strJ := growFloats(&s.stretch, nc)
		// Candidates go in groups of mat.BorderLanes, solved side by side
		// over the fixed slots factored once per worker; a short last group,
		// a single user and fixed slots whose factorization fails take the
		// one-candidate path.
		groups := (nc + mat.BorderLanes - 1) / mat.BorderLanes
		workers := par.Resolve(groups, opts.Workers)
		scratches := s.scratchSet(workers, len(p.points), kk)
		for _, sc := range scratches {
			sc.setK(kk)
			slot := 0
			for o := 0; o < k; o++ {
				if o != j && assigned[o] {
					sc.setCol(slot, &s.cands[o][bestIdx[o]])
					slot++
				}
			}
			sc.grouped = groupLanes && kk > 1 && sc.border.Factor(sc.gram[:kk*kk], sc.d[:kk])
		}
		cj := s.cands[j]
		par.For(groups, opts.Workers, func(w, u int) {
			sc := scratches[w]
			lo, hi := u*mat.BorderLanes, min((u+1)*mat.BorderLanes, nc)
			if sc.grouped && hi-lo == mat.BorderLanes {
				sc.solveLast4(p, cj[lo:hi], objs[lo:hi], strJ[lo:hi])
				return
			}
			for i := lo; i < hi; i++ {
				sc.setCol(kk-1, &cj[i])
				objs[i] = sc.solve(p)
				strJ[i] = sc.x[kk-1]
			}
		})
		ranked = memo.store(candidates[j], objs, strJ, opts.TopM)
	}
	if ranked[0].Objective < math.Inf(1) {
		bestIdx[j] = ranked[0].Index
	}
	return ranked
}

// incumbentEval evaluates the composition of every user's incumbent, in
// user order.
func (s *Searcher) incumbentEval(p *Problem, candidates [][]geom.Point, bestIdx []int) Eval {
	k := len(candidates)
	sc := s.scratchSet(1, len(p.points), k)[0]
	sc.setK(k)
	positions := make([]geom.Point, k)
	for o := range positions {
		sc.setCol(o, &s.cands[o][bestIdx[o]])
		positions[o] = candidates[o][bestIdx[o]]
	}
	obj := sc.solve(p)
	return makeEval(positions, sc.x[:k], obj)
}

// scanMemo stores the ranking of every distinct user scan of one
// searchConditional call, keyed by the scanned user and the incumbent index
// of every other user (-1 when unassigned). Keys and rankings live in flat
// arenas sized for the call's worst case of all-distinct scans; only the
// topM ranking is kept, never the N-length objective vectors. Lookups scan
// the keys linearly: a call holds at most
// conditionalRestarts·K·(1+conditionalSweeps) entries of K+1 ints,
// negligible next to one scan's N composition solves.
type scanMemo struct {
	key  []int            // the key of the scan being looked up
	keys []int            // stored keys, len(key) ints per entry
	offs []int            // entry e's ranking is tops[offs[e]:offs[e+1]]
	tops []RankedPosition // stored rankings, back to back
}

func newScanMemo(k, scans, topM int) *scanMemo {
	return &scanMemo{
		key:  make([]int, k+1),
		keys: make([]int, 0, scans*(k+1)),
		offs: append(make([]int, 0, scans+1), 0),
		tops: make([]RankedPosition, 0, scans*topM),
	}
}

// find sets the lookup key to a scan of user j against the given
// incumbents and returns that scan's stored ranking, if any.
func (m *scanMemo) find(j int, bestIdx []int, assigned []bool) ([]RankedPosition, bool) {
	m.key[0] = j
	for o, a := range assigned {
		m.key[o+1] = -1
		if a && o != j {
			m.key[o+1] = bestIdx[o]
		}
	}
	for e := 0; e+1 < len(m.offs); e++ {
		if slices.Equal(m.keys[e*len(m.key):(e+1)*len(m.key)], m.key) {
			return m.tops[m.offs[e]:m.offs[e+1]:m.offs[e+1]], true
		}
	}
	return nil, false
}

// store ranks a scan's objectives under the key of the last find and
// returns the stored ranking.
func (m *scanMemo) store(cands []geom.Point, objs, strs []float64, topM int) []RankedPosition {
	start := len(m.tops)
	m.tops = appendTopM(m.tops, cands, objs, strs, topM)
	m.keys = append(m.keys, m.key...)
	m.offs = append(m.offs, len(m.tops))
	return m.tops[start:len(m.tops):len(m.tops)]
}
