package exp

// This file implements deterministic parallel trial execution.
//
// Every experiment in this package is embarrassingly parallel across its
// (cell, trial) grid: each trial derives all of its randomness from
// Config.trialSeed(expID, cell, trial), so trials are pure functions of
// their coordinate. runTrials and runCells exploit that by fanning the
// units out over a bounded worker pool while writing each result into a
// pre-sized slice slot indexed by its coordinate. Reductions then walk the
// slices in index order, which makes every rendered Table byte-identical
// regardless of the worker count — the concurrency contract the golden
// tests in golden_test.go enforce for the whole registry.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fluxtrack/internal/obs"
	"fluxtrack/internal/stats"
)

// workerCount resolves the Workers knob: values above 1 bound the pool,
// 1 forces the exact sequential legacy path, and 0 (or negative) means one
// worker per available CPU.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachUnit runs fn(i) for every i in [0, n) on up to workers goroutines.
// fn must write its outputs into index-disjoint slots; the pool guarantees
// nothing about execution order. With workers == 1 the units run
// sequentially in index order and the first error aborts the remaining
// units — the exact legacy loop. With more workers every unit runs and the
// error of the lowest-index failing unit is returned, so the error a caller
// sees never depends on goroutine scheduling.
func forEachUnit(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// poolObs holds the harness-level instruments bound from Config.Metrics:
// how many (cell, trial) units ran, each unit's wall clock, and the pool
// queue depth at unit dispatch. The units counter is a deterministic work
// count; the histograms record wall time and dispatch-order depth (units are
// handed out in index order, so even the depth distribution is
// worker-count-invariant). The zero value is the disabled instrument set.
type poolObs struct {
	units *obs.Counter   // exp.pool.units
	wall  *obs.Histogram // exp.trial.wall_ms
	depth *obs.Histogram // exp.pool.queue_depth
}

func (c Config) poolObs() poolObs {
	if c.Metrics == nil {
		return poolObs{}
	}
	return poolObs{
		units: c.Metrics.Counter("exp.pool.units"),
		wall:  c.Metrics.Histogram("exp.trial.wall_ms", obs.DurationBucketsMs),
		depth: c.Metrics.Histogram("exp.pool.queue_depth", obs.CountBuckets),
	}
}

// start stamps a unit's dispatch time; the zero time when disabled.
func (p poolObs) start() time.Time {
	if p.units == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe flushes one finished unit, sharding by its index.
func (p poolObs) observe(unit, total int, t0 time.Time) {
	if p.units == nil {
		return
	}
	p.units.Inc(unit)
	p.wall.Observe(unit, float64(time.Since(t0).Nanoseconds())/1e6)
	p.depth.Observe(unit, float64(total-1-unit))
}

// runTrials runs the n trials of one experiment cell on the worker pool and
// returns the per-trial results indexed by trial number: runCells over the
// single cell with cfg.Trials set to n.
func runTrials[T any](cfg Config, expID string, cell, n int, fn func(trial int, seed uint64) (T, error)) ([]T, error) {
	cfg.Trials = n
	out, err := runCells(cfg, expID, []int{cell}, func(_, trial int, seed uint64) (T, error) {
		return fn(trial, seed)
	})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// runCells fans an experiment's full (cell, trial) grid out over one shared
// worker pool: every cell in cells runs cfg.Trials trials and the results
// come back as out[cellIdx][trial]. cells holds the integer cell
// coordinates fed to trialSeed, so seeds match the sequential loops
// exactly. With Workers == 1 the units execute in the legacy order — cells
// outer, trials inner.
func runCells[T any](cfg Config, expID string, cells []int, fn func(cellIdx, trial int, seed uint64) (T, error)) ([][]T, error) {
	n := cfg.Trials
	out := make([][]T, len(cells))
	for i := range out {
		out[i] = make([]T, n)
	}
	pool := cfg.poolObs()
	err := forEachUnit(cfg.workerCount(), len(cells)*n, func(u int) error {
		ci, trial := u/n, u%n
		t0 := pool.start()
		v, err := fn(ci, trial, cfg.trialSeed(expID, cells[ci], trial))
		pool.observe(u, len(cells)*n, t0)
		if err != nil {
			return err
		}
		out[ci][trial] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// axis is one dimension of a two-axis sweep: its values, the label a table
// prints for each, and the integer id each adds to its cells' trialSeed
// coordinate (a cell's id is its row id plus its column id).
type axis[V any] struct {
	vals   []V
	labels []string
	ids    []int
}

// newAxis builds the axis over vals, labelling and numbering each value
// with label and id.
func newAxis[V any](vals []V, label func(V) string, id func(V) int) axis[V] {
	a := axis[V]{vals: vals}
	for _, v := range vals {
		a.labels = append(a.labels, label(v))
		a.ids = append(a.ids, id(v))
	}
	return a
}

// sweep runs a two-axis experiment through runCells: every (row, column)
// cell runs cfg.Trials trials of trial(row value, column value, seed),
// seeded from trialSeed(expID, row id + column id, trial), with the cells in
// row-major order. Each cell reduces to the mean of its trials' values,
// concatenated in trial order, and the result is out[row][column].
func sweep[R, C any](cfg Config, expID string, rows axis[R], cols axis[C],
	trial func(r R, c C, seed uint64) ([]float64, error)) ([][]float64, error) {
	nc := len(cols.vals)
	cells := make([]int, 0, len(rows.vals)*nc)
	for _, r := range rows.ids {
		for _, c := range cols.ids {
			cells = append(cells, r+c)
		}
	}
	res, err := runCells(cfg, expID, cells, func(ci, _ int, seed uint64) ([]float64, error) {
		return trial(rows.vals[ci/nc], cols.vals[ci%nc], seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(rows.vals))
	for r := range out {
		for c := 0; c < nc; c++ {
			out[r] = append(out[r], stats.Mean(flatten(res[r*nc+c])))
		}
	}
	return out, nil
}

// sweepRows formats a sweep's cells as table rows: the row's label, then
// each cell with two decimals.
func sweepRows(labels []string, cells [][]float64) [][]string {
	rows := make([][]string, len(cells))
	for r, cell := range cells {
		rows[r] = []string{labels[r]}
		for _, v := range cell {
			rows[r] = append(rows[r], f2(v))
		}
	}
	return rows
}
