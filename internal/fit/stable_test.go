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
