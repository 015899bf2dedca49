// Package par provides the bounded fork-join helper shared by every
// intra-run parallel loop in the pipeline: the NLS candidate search in
// internal/fit and the per-user phases of the SMC tracker in internal/smc.
// (The experiment harness keeps its own work-stealing pool in internal/exp,
// whose units are whole trials rather than slices of one computation.)
//
// The contract that makes nested use safe is determinism: callers must make
// fn(w, i) a pure function of i that writes only index-disjoint outputs, so
// results never depend on the worker count or on scheduling. The worker
// index w exists solely to hand each goroutine its own scratch arena.
//
// For units with wildly uneven costs — the tiles of a skewed sharded field,
// where one hot tile can hold most of the users — the contiguous ranges of
// For serialize badly: the worker that draws the hot unit also draws its
// neighbors. LPTAssign plus ForPlan give callers a deterministic
// longest-processing-time schedule instead: units are assigned to the
// least-loaded worker in descending cost order, so the hot unit gets a
// worker to itself and the cheap units pack around it. The assignment is a
// pure function of (costs, workers) — never of measured wall time — so a
// run's schedule is reproducible, and because callers keep the
// index-disjoint-writes contract, output stays byte-identical under any
// schedule anyway.
package par

import (
	"runtime"
	"sort"
	"sync"
)

// Resolve returns the worker count For will actually use for n independent
// units: GOMAXPROCS when workers <= 0, never more than n, never less than 1.
func Resolve(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(w, i) for every i in [0, n) on up to workers goroutines
// (GOMAXPROCS when workers <= 0). The worker index w identifies which of the
// Resolve(n, workers) contiguous shards is running — shard w covers
// [n*w/workers, n*(w+1)/workers) — so callers can hand each worker its own
// scratch state; fn invocations must be independent. With one worker the
// loop runs inline in index order — the exact sequential path.
func For(n, workers int, fn func(w, i int)) {
	if n == 0 {
		return
	}
	workers = Resolve(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := n * w / workers
			hi := n * (w + 1) / workers
			for i := lo; i < hi; i++ {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// LPTAssign builds a longest-processing-time schedule: unit i (cost
// costs[i]) is assigned to the worker with the least total cost so far,
// considering units in (cost descending, index ascending) order and breaking
// load ties by the lowest worker index. The result maps each of
// Resolve(len(costs), workers) workers to the ascending-sorted unit indices
// it owns. The assignment is a pure function of (costs, workers): equal
// inputs always produce the same plan, so a schedule derived from
// deterministic work counters is itself deterministic and reproducible
// across runs.
//
// plan is an optional previous return value whose backing slices are reused
// to keep steady-state scheduling allocation-free; pass nil on first use.
func LPTAssign(costs []float64, workers int, plan [][]int) [][]int {
	n := len(costs)
	workers = Resolve(n, workers)
	if cap(plan) < workers {
		plan = make([][]int, workers)
	}
	plan = plan[:workers]
	for w := range plan {
		plan[w] = plan[w][:0]
	}
	if n == 0 {
		return plan
	}
	// Order units by (cost desc, index asc). The order slice is rebuilt each
	// call; to stay allocation-free across rounds, callers can rely on plan
	// reuse — the order scratch is the only per-call allocation and is small
	// (one int per unit), so it is kept local for clarity.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if costs[ia] != costs[ib] {
			return costs[ia] > costs[ib]
		}
		return ia < ib
	})
	load := make([]float64, workers)
	for _, i := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		load[best] += costs[i]
		plan[best] = append(plan[best], i)
	}
	// Each worker steps its units in ascending index order, mirroring the
	// sequential path; merge order is the caller's job regardless.
	for w := range plan {
		sort.Ints(plan[w])
	}
	return plan
}

// ForPlan runs fn(w, i) for every unit i in plan[w], one goroutine per
// non-empty worker list (inline, in index order, when the plan has a single
// worker). Like For, fn must write only index-disjoint outputs so results
// are independent of scheduling.
func ForPlan(plan [][]int, fn func(w, i int)) {
	if len(plan) == 1 {
		for _, i := range plan[0] {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := range plan {
		if len(plan[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range plan[w] {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
