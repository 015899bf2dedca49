package main

import (
	"time"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
)

// replaySpec is the input of a layer replay: a workload's world and stream,
// which users the search replay draws candidates for, and the NNLS
// dimension k the workload's fits run at.
type replaySpec struct {
	model    *fluxmodel.Model
	points   []geom.Point
	field    geom.Rect
	dbBounds geom.Rect // the fingerprint grid a tracker of this workload builds
	stream   stream
	users    []int
	n        int
	k        int
	seed     uint64
}

// replayLayers calls each layer's public entry directly on a fixed sample
// of the stream's rounds, with n candidates per user drawn in VMax discs
// around the true positions, and divides wall time by the work count the
// same calls report.
func replayLayers(l *ledger, rs replaySpec, rounds int) error {
	total := len(rs.stream.obs)
	rounds = min(rounds, total)
	src := rng.New(rs.seed ^ 0x5eed)
	searcher := fit.NewSearcher()
	var colNs, colN, plainNs, robustNs, solves, solveNs, solveN float64
	for i := 0; i < rounds; i++ {
		r := i * total / rounds
		p, err := fit.NewProblem(rs.model, rs.points, rs.stream.obs[r])
		if err != nil {
			return err
		}
		truth := rs.stream.truth[r]
		cands := make([][]geom.Point, len(rs.users))
		for j, u := range rs.users {
			cands[j] = make([]geom.Point, rs.n)
			for c := range cands[j] {
				cands[j][c] = src.InDiscClamped(truth[u], vmax, rs.field)
			}
		}

		t0 := time.Now()
		for _, cs := range cands {
			for _, c := range cs {
				p.KernelColumn(c)
			}
		}
		colNs += float64(time.Since(t0).Nanoseconds())
		colN += float64(len(cands) * rs.n)

		s0, _ := searcher.WorkTotals()
		t0 = time.Now()
		if _, err := searcher.Search(p, cands, fit.Options{Workers: 1}); !l.op(err) {
			continue
		}
		plainNs += float64(time.Since(t0).Nanoseconds())
		s1, _ := searcher.WorkTotals()
		solves += float64(s1 - s0)

		t0 = time.Now()
		_, err = searcher.Search(p, cands, fit.Options{Workers: 1, Robust: fit.RobustConfig{Mode: fit.RobustBoth}})
		robustNs += float64(time.Since(t0).Nanoseconds())
		l.op(err)

		ns, n := replayNNLS(p, rs.stream.obs[r], truth, rs.k)
		solveNs += ns
		solveN += n
	}
	l.set("fluxmodel.ns_per_column", ratio(colNs, colN))
	l.set("fit.ns_per_composition", ratio(plainNs, solves))
	l.set("fit.robust.overhead_ratio", ratio(robustNs, plainNs))
	l.set("mat.ns_per_solve", ratio(solveNs, solveN))

	var buildMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, err := fingerprint.NewDBOver(rs.model, rs.dbBounds, rs.points, fingerprint.CoarseConfig{Enabled: true}, 1, nil)
		if !l.op(err) {
			break
		}
		buildMs = append(buildMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	l.set("fingerprint.build_ms", stats.Median(buildMs))
	return nil
}

// replayNNLS times mat.NNLSGramInto on the Gram system of the first k true
// positions' kernel columns against the round's readings, repeating the
// solve for at least 20 ms. It returns the wall time and the solve count
// the workspace reports.
func replayNNLS(p *fit.Problem, b []float64, truth []geom.Point, k int) (ns, solves float64) {
	k = min(k, len(truth))
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = p.KernelColumn(truth[j])
	}
	g := make([]float64, k*k)
	d := make([]float64, k)
	for i := range cols {
		d[i] = mat.Dot(cols[i], b)
		for j := range cols {
			g[i*k+j] = mat.Dot(cols[i], cols[j])
		}
	}
	x := make([]float64, k)
	var ws mat.NNLSWorkspace
	t0 := time.Now()
	for reps := 0; reps < 3 || time.Since(t0) < 20*time.Millisecond; reps++ {
		mat.NNLSGramInto(g, d, x, &ws)
	}
	return float64(time.Since(t0).Nanoseconds()), float64(ws.Solves)
}
