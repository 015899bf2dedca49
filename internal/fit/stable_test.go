package fit

import (
	"math"
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// resultBits flattens a search result into the bits of every float and
// every index, so two results compare bit for bit (NaN and −0 included).
func resultBits(r Result) []uint64 {
	var out []uint64
	f := func(v float64) { out = append(out, math.Float64bits(v)) }
	for _, e := range r.Best {
		for _, p := range e.Positions {
			f(p.X)
			f(p.Y)
		}
		for _, c := range e.Stretches {
			f(c)
		}
		f(e.Objective)
	}
	for _, ranked := range r.PerUser {
		for _, rp := range ranked {
			f(rp.Pos.X)
			f(rp.Pos.Y)
			f(rp.Stretch)
			f(rp.Objective)
			out = append(out, uint64(rp.Index))
		}
	}
	if r.Exhaustive {
		out = append(out, 1)
	}
	return out
}

// TestSearchStableRowsBitIdentical: the exhaustive and the conditional
// Search return the same bits, and do the same NNLS work, with the
// evaluator's Cholesky row reuse on and forced off, over weighted and
// unweighted problems, one to four users and duplicated candidates (two
// users at one position make the factorization fail mid-way).
func TestSearchStableRowsBitIdentical(t *testing.T) {
	src := rng.New(27)
	defer func() { reuseRows = true }()
	paths := map[bool]int{}
	for trial := 0; trial < 24; trial++ {
		p, field := randomEquivProblem(t, src, trial%2 == 0)
		users := 1 + trial%4
		cands := make([][]geom.Point, users)
		for j := range cands {
			cands[j] = make([]geom.Point, 6+src.IntN(10))
			for i := range cands[j] {
				cands[j][i] = src.InRect(field)
			}
			if j > 0 {
				cands[j][0] = cands[0][0]
			}
		}
		opts := Options{TopM: 5, Seed: uint64(trial), Workers: 1 + trial%2}
		if trial%3 == 0 {
			opts.MaxExhaustive = 10 // the conditional path, for users > 1
		}
		run := func(reuse bool) (Result, uint64, uint64) {
			reuseRows = reuse
			s := NewSearcher()
			res, err := s.Search(p, cands, opts)
			if err != nil {
				t.Fatal(err)
			}
			solves, iters := s.WorkTotals()
			return res, solves, iters
		}
		on, solvesOn, itersOn := run(true)
		off, solvesOff, itersOff := run(false)
		paths[on.Exhaustive]++
		a, b := resultBits(on), resultBits(off)
		if len(a) != len(b) {
			t.Fatalf("trial %d: results differ in shape with row reuse on and off", trial)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d (users %d, exhaustive %v): result word %d differs with row reuse on (%#x) and off (%#x)",
					trial, users, on.Exhaustive, i, a[i], b[i])
			}
		}
		if solvesOn != solvesOff || itersOn != itersOff {
			t.Fatalf("trial %d: %d solves / %d iters with row reuse, %d / %d without",
				trial, solvesOn, itersOn, solvesOff, itersOff)
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("paths covered: %v, want both exhaustive and conditional", paths)
	}
}

// TestSearchGroupedLanesBitIdentical: the conditional Search returns the
// same bits, and does the same NNLS work, with its scans solving four
// candidates at a time (solveLast4) and with every candidate solved alone,
// on the plain, coarse and robust two-pass paths, at workers 1 and 2. The
// scanned user's candidate count runs through 1–9, 64 and 1000, so every
// length of the short last group occurs; two users share a candidate, so
// some scans hold a duplicated fixed slot.
func TestSearchGroupedLanesBitIdentical(t *testing.T) {
	defer func() { groupLanes = true }()
	p, pts := modelProblem(t, []geom.Point{geom.Pt(7, 9), geom.Pt(21, 12), geom.Pt(15, 24)}, []float64{1.2, 2.3, 1.7}, 48, 31)
	db := coarseDB(t, p, pts, 8)
	src := rng.New(30)
	for _, size := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 1000} {
		cands := randomCandidates(p.Model().Field(), 3, 7, src)
		cands[0] = randomCandidates(p.Model().Field(), 1, size, src)[0]
		cands[2][0] = cands[1][0]
		for _, path := range []string{"plain", "coarse", "robust"} {
			for _, workers := range []int{1, 2} {
				opts := Options{TopM: 5, Seed: uint64(size), Workers: workers, MaxExhaustive: 1}
				switch path {
				case "coarse":
					opts.Coarse = &Coarse{DB: db, TopK: max(2, size-size/5)}
				case "robust":
					opts.Robust = RobustConfig{Mode: RobustBoth}
				}
				run := func(grouped bool) (Result, uint64, uint64) {
					groupLanes = grouped
					s := NewSearcher()
					res, err := s.Search(p, cands, opts)
					if err != nil {
						t.Fatal(err)
					}
					solves, iters := s.WorkTotals()
					return res, solves, iters
				}
				on, solvesOn, itersOn := run(true)
				off, solvesOff, itersOff := run(false)
				if on.Exhaustive {
					t.Fatalf("size %d, %s: the search enumerated, want the conditional scan", size, path)
				}
				a, b := resultBits(on), resultBits(off)
				if len(a) != len(b) {
					t.Fatalf("size %d, %s, workers %d: results differ in shape with grouped lanes on and off", size, path, workers)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("size %d, %s, workers %d: result word %d differs with grouped lanes on (%#x) and off (%#x)",
							size, path, workers, i, a[i], b[i])
					}
				}
				if solvesOn != solvesOff || itersOn != itersOff {
					t.Fatalf("size %d, %s, workers %d: %d solves / %d iters with grouped lanes, %d / %d without",
						size, path, workers, solvesOn, itersOn, solvesOff, itersOff)
				}
			}
		}
	}
}

// TestScanGroupedLanesFixedPivotFails: a scan whose fixed slots hold one
// position twice cannot factor them, so it solves every candidate alone,
// with the bits of a scan that never groups; distinct fixed slots group.
func TestScanGroupedLanesFixedPivotFails(t *testing.T) {
	defer func() { groupLanes = true }()
	p, _ := modelProblem(t, []geom.Point{geom.Pt(8, 8), geom.Pt(20, 18)}, []float64{1.5, 2}, 40, 5)
	src := rng.New(6)
	cands := randomCandidates(p.Model().Field(), 3, 12, src)
	cands[2][3] = cands[1][0]
	opts := Options{TopM: 4}.withDefaults()
	scan := func(grouped bool, fixed2 int) ([]RankedPosition, bool) {
		groupLanes = grouped
		s := NewSearcher()
		s.prepare(p, cands, 1)
		memo := newScanMemo(3, 1, opts.TopM)
		ranked := s.scanUser(p, cands, []int{0, 0, fixed2}, []bool{true, true, true}, 0, opts, memo)
		return ranked, s.scratch[0].grouped
	}
	for _, c := range []struct {
		fixed2      int
		wantGrouped bool
	}{{3, false}, {4, true}} {
		got, grouped := scan(true, c.fixed2)
		want, _ := scan(false, c.fixed2)
		if grouped != c.wantGrouped {
			t.Fatalf("fixed slots (%v, %v): scan grouped = %v, want %v",
				cands[1][0], cands[2][c.fixed2], grouped, c.wantGrouped)
		}
		a := resultBits(Result{PerUser: [][]RankedPosition{got}})
		b := resultBits(Result{PerUser: [][]RankedPosition{want}})
		if len(a) != len(b) {
			t.Fatal("rankings differ in length with grouped lanes on and off")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("fixed slots (%v, %v): ranking word %d differs with grouped lanes on and off",
					cands[1][0], cands[2][c.fixed2], i)
			}
		}
	}
}
