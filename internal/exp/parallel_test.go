package exp

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fluxtrack/internal/stats"
)

// TestForEachUnitCoversEveryIndex checks that every index in [0, n) runs
// exactly once at a spread of worker counts, including workers > n.
func TestForEachUnitCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16, 100} {
		for _, n := range []int{0, 1, 2, 5, 17, 64} {
			var counts sync.Map
			err := forEachUnit(workers, n, func(i int) error {
				v, _ := counts.LoadOrStore(i, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			seen := 0
			counts.Range(func(k, v any) bool {
				i := k.(int)
				if i < 0 || i >= n {
					t.Errorf("workers=%d n=%d: out-of-range index %d", workers, n, i)
				}
				if c := v.(*atomic.Int64).Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
				seen++
				return true
			})
			if seen != n {
				t.Errorf("workers=%d n=%d: %d distinct indices ran", workers, n, seen)
			}
		}
	}
}

// TestForEachUnitSequentialOrder checks that the workers=1 path preserves
// the exact legacy iteration order and aborts at the first error.
func TestForEachUnitSequentialOrder(t *testing.T) {
	var order []int
	if err := forEachUnit(1, 5, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("sequential order = %v", order)
	}

	order = order[:0]
	boom := fmt.Errorf("boom")
	err := forEachUnit(1, 5, func(i int) error {
		order = append(order, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Errorf("error = %v, want boom", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("sequential path did not abort at first error: ran %v", order)
	}
}

// TestForEachUnitLowestIndexErrorWins checks that when several units fail
// concurrently, the reported error is always the lowest-indexed one — the
// same error the sequential path would have returned — regardless of
// scheduling.
func TestForEachUnitLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		err := forEachUnit(workers, 16, func(i int) error {
			if i%3 == 2 { // units 2, 5, 8, 11, 14 fail
				return fmt.Errorf("unit %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 2 failed" {
			t.Errorf("workers=%d: error = %v, want unit 2 failed", workers, err)
		}
	}
}

// TestRunTrialsSeedsAndIndexing checks that runTrials hands each trial the
// seed trialSeed(exp, cell, trial) and stores its result at index trial.
func TestRunTrialsSeedsAndIndexing(t *testing.T) {
	cfg := Config{Seed: 7, Trials: 6, Workers: 3}
	got, err := runTrials(cfg, "unit", 4, 6, func(trial int, seed uint64) (uint64, error) {
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial, seed := range got {
		if want := cfg.trialSeed("unit", 4, trial); seed != want {
			t.Errorf("trial %d: seed %d, want %d", trial, seed, want)
		}
	}
}

// TestRunCellsSeedsAndIndexing checks the (cell, trial) result layout and
// seed derivation, using the cell VALUES (which key the seed) rather than
// their slice positions.
func TestRunCellsSeedsAndIndexing(t *testing.T) {
	cfg := Config{Seed: 3, Trials: 4, Workers: 2}
	cells := []int{30, 10, 20}
	got, err := runCells(cfg, "unit", cells, func(ci, trial int, seed uint64) ([2]uint64, error) {
		return [2]uint64{uint64(ci), seed}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("got %d cells, want %d", len(got), len(cells))
	}
	for ci, cellVal := range cells {
		if len(got[ci]) != cfg.Trials {
			t.Fatalf("cell %d: %d trials, want %d", ci, len(got[ci]), cfg.Trials)
		}
		for trial, v := range got[ci] {
			if v[0] != uint64(ci) {
				t.Errorf("cell %d trial %d: stored at wrong cell %d", ci, trial, v[0])
			}
			if want := cfg.trialSeed("unit", cellVal, trial); v[1] != want {
				t.Errorf("cell %d trial %d: seed %d, want %d", ci, trial, v[1], want)
			}
		}
	}
}

// TestSweepSeedsAndIndexing checks the two-axis sweep: every (row, column)
// cell runs its trials with the row and column values and the seeds
// trialSeed(expID, row id + column id, trial), and the reduced cells come
// back as out[row][column] in axis order, each the mean of its trials'
// values in trial order.
func TestSweepSeedsAndIndexing(t *testing.T) {
	cfg := Config{Seed: 5, Trials: 3, Workers: 3}
	rows := axis[string]{vals: []string{"a", "b", "c"}, labels: []string{"A", "B", "C"}, ids: []int{300, 100, 200}}
	cols := newAxis([]int{1, 2}, strconv.Itoa, func(v int) int { return v * 10 })
	var mu sync.Mutex
	seeds := map[string][]uint64{}
	got, err := sweep(cfg, "unit", rows, cols, func(r string, c int, seed uint64) ([]float64, error) {
		mu.Lock()
		defer mu.Unlock()
		key := r + strconv.Itoa(c)
		seeds[key] = append(seeds[key], seed)
		return []float64{float64(seed % 997), float64(c)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows.vals) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows.vals))
	}
	for ri, r := range rows.vals {
		if len(got[ri]) != len(cols.vals) {
			t.Fatalf("row %s: %d columns, want %d", r, len(got[ri]), len(cols.vals))
		}
		for ci, c := range cols.vals {
			var want []uint64
			var vals []float64
			for trial := 0; trial < cfg.Trials; trial++ {
				seed := cfg.trialSeed("unit", rows.ids[ri]+cols.ids[ci], trial)
				want = append(want, seed)
				vals = append(vals, float64(seed%997), float64(c))
			}
			key := r + strconv.Itoa(c)
			gotSeeds := append([]uint64(nil), seeds[key]...)
			sort.Slice(gotSeeds, func(i, j int) bool { return gotSeeds[i] < gotSeeds[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !reflect.DeepEqual(gotSeeds, want) {
				t.Errorf("cell (%s, %d): seeds %v, want %v", r, c, gotSeeds, want)
			}
			if m := stats.Mean(vals); got[ri][ci] != m {
				t.Errorf("cell (%s, %d) = %v, want %v", r, c, got[ri][ci], m)
			}
		}
	}
	table := sweepRows(rows.labels, [][]float64{{1, 2.345}, {3, 4}})
	if want := [][]string{{"A", "1.00", "2.35"}, {"B", "3.00", "4.00"}}; !reflect.DeepEqual(table, want) {
		t.Errorf("sweepRows = %v, want %v", table, want)
	}
}

// TestRunCellsSequentialLegacyOrder checks that Workers=1 visits units
// exactly as the pre-parallel loops did: cells outer, trials inner.
func TestRunCellsSequentialLegacyOrder(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 3, Workers: 1}
	var order [][2]int
	if _, err := runCells(cfg, "unit", []int{5, 9}, func(ci, trial int, seed uint64) (int, error) {
		order = append(order, [2]int{ci, trial})
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("sequential unit order = %v, want %v", order, want)
	}
}

// TestRunTrialsOrderInsensitive forces trials to COMPLETE in reverse order
// (later indices sleep less) and checks the result slice is still indexed
// by trial, not by completion time.
func TestRunTrialsOrderInsensitive(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 8, Workers: 8}
	const n = 8
	got, err := runTrials(cfg, "unit", 0, n, func(trial int, seed uint64) (int, error) {
		time.Sleep(time.Duration(n-trial) * 2 * time.Millisecond)
		return trial * trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial, v := range got {
		if v != trial*trial {
			t.Errorf("trial %d: got %d, want %d", trial, v, trial*trial)
		}
	}
}

// TestWorkerCount checks the Workers knob's resolution rules.
func TestWorkerCount(t *testing.T) {
	if got := (Config{Workers: 3}).workerCount(); got != 3 {
		t.Errorf("Workers=3 resolved to %d", got)
	}
	if got := (Config{}).workerCount(); got < 1 {
		t.Errorf("Workers=0 resolved to %d, want >= 1", got)
	}
}
