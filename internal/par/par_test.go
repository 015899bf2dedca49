package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var hits [100]atomic.Int32
		For(len(hits), workers, func(_, i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForShardIndexInRange(t *testing.T) {
	const n, workers = 64, 5
	resolved := Resolve(n, workers)
	For(n, workers, func(w, _ int) {
		if w < 0 || w >= resolved {
			t.Errorf("worker index %d outside [0, %d)", w, resolved)
		}
	})
}

func TestLPTAssignDeterministic(t *testing.T) {
	costs := []float64{5, 1, 9, 1, 3, 9, 2, 7}
	first := LPTAssign(costs, 3, nil)
	for rep := 0; rep < 10; rep++ {
		again := LPTAssign(costs, 3, nil)
		if len(again) != len(first) {
			t.Fatalf("rep %d: %d workers, want %d", rep, len(again), len(first))
		}
		for w := range first {
			if len(again[w]) != len(first[w]) {
				t.Fatalf("rep %d worker %d: %v vs %v", rep, w, again[w], first[w])
			}
			for k := range first[w] {
				if again[w][k] != first[w][k] {
					t.Fatalf("rep %d worker %d: %v vs %v", rep, w, again[w], first[w])
				}
			}
		}
	}
}

func TestLPTAssignCoversEveryUnit(t *testing.T) {
	costs := make([]float64, 37)
	for i := range costs {
		costs[i] = float64((i * 7) % 11)
	}
	for _, workers := range []int{1, 2, 5, 64} {
		plan := LPTAssign(costs, workers, nil)
		seen := make([]int, len(costs))
		for w := range plan {
			prev := -1
			for _, i := range plan[w] {
				if i <= prev {
					t.Fatalf("workers=%d worker %d not ascending: %v", workers, w, plan[w])
				}
				prev = i
				seen[i]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: unit %d assigned %d times", workers, i, c)
			}
		}
	}
}

func TestLPTAssignBalancesSkew(t *testing.T) {
	// One hot unit that dwarfs everything else: LPT must give it a worker to
	// itself while the cheap units pack onto the remaining workers, unlike a
	// contiguous split which would pair the hot unit with its neighbors.
	costs := []float64{100, 1, 1, 1, 1, 1, 1, 1}
	plan := LPTAssign(costs, 4, nil)
	for w := range plan {
		for _, i := range plan[w] {
			if i == 0 && len(plan[w]) != 1 {
				t.Fatalf("hot unit shares worker %d with %v", w, plan[w])
			}
		}
	}
	// Max worker load should be the hot unit alone.
	for w := range plan {
		var load float64
		for _, i := range plan[w] {
			load += costs[i]
		}
		if load > 100 {
			t.Fatalf("worker %d overloaded: %v (load %g)", w, plan[w], load)
		}
	}
}

func TestLPTAssignReusesPlan(t *testing.T) {
	costs := []float64{4, 2, 6, 1}
	plan := LPTAssign(costs, 2, nil)
	again := LPTAssign(costs, 2, plan)
	if &again[0] != &plan[0] {
		t.Error("plan backing array not reused")
	}
	// Shrinking inputs must not leave stale units behind.
	small := LPTAssign(costs[:2], 2, again)
	total := 0
	for w := range small {
		total += len(small[w])
	}
	if total != 2 {
		t.Fatalf("reused plan holds %d units, want 2", total)
	}
}

func TestForPlanCoversEveryUnit(t *testing.T) {
	costs := make([]float64, 50)
	for i := range costs {
		costs[i] = float64(i % 7)
	}
	for _, workers := range []int{1, 3, 8} {
		plan := LPTAssign(costs, workers, nil)
		var hits [50]atomic.Int32
		ForPlan(plan, func(_, i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: unit %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(10, 4); got != 4 {
		t.Errorf("Resolve(10, 4) = %d, want 4", got)
	}
	if got := Resolve(3, 8); got != 3 {
		t.Errorf("Resolve(3, 8) = %d, want 3 (capped at n)", got)
	}
	if got := Resolve(10, 0); got < 1 {
		t.Errorf("Resolve(10, 0) = %d, want >= 1", got)
	}
	if got := Resolve(0, 0); got != 1 {
		t.Errorf("Resolve(0, 0) = %d, want 1", got)
	}
}
