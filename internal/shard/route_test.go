package shard

import (
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/smc"
)

// routeTestField builds a small 2×2 field with a deterministic sensor grid —
// no core.Scenario machinery, so the white-box tests stay cheap.
func routeTestField(t *testing.T, users int) *Field {
	t.Helper()
	m, err := fluxmodel.New(geom.Square(30), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			pts = append(pts, geom.Pt(2.5+5*float64(i), 2.5+5*float64(j)))
		}
	}
	f, err := New(Config{
		Grid:    Grid{Rows: 2, Cols: 2, Halo: 2},
		Tracker: smc.Config{Model: m, SamplePoints: pts, NumUsers: users, N: 40, M: 4},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRouteZeroSteadyStateAllocs is the batched-routing acceptance bar: once
// the Field exists, the per-round observation-routing pass must not allocate
// at all, no matter how the owner table is shuffled by migrations.
func TestRouteZeroSteadyStateAllocs(t *testing.T) {
	f := routeTestField(t, 50)
	// Scatter ownership so every tile's segment is non-trivial and
	// interleaved — the worst case for an append-based router, a no-op for
	// the counting sort.
	for j := range f.owner {
		f.owner[j] = (j * 7) % len(f.tiles)
	}
	if avg := testing.AllocsPerRun(200, func() { f.route() }); avg != 0 {
		t.Fatalf("route allocates %.1f times per round, want 0", avg)
	}
}

// TestRoutePartition pins the counting sort's semantics: the owned lists
// partition the user set exactly, each in ascending order, each aliasing its
// contiguous segment of the shared arena.
func TestRoutePartition(t *testing.T) {
	f := routeTestField(t, 23)
	for j := range f.owner {
		f.owner[j] = (j * 5) % len(f.tiles)
	}
	f.route()
	seen := make([]bool, 23)
	total := 0
	for i, tl := range f.tiles {
		if len(tl.owned) != f.load[i] {
			t.Fatalf("tile %d: %d owned vs load %d", i, len(tl.owned), f.load[i])
		}
		for k, j := range tl.owned {
			if f.owner[j] != i {
				t.Fatalf("tile %d lists user %d owned by %d", i, j, f.owner[j])
			}
			if seen[j] {
				t.Fatalf("user %d routed twice", j)
			}
			seen[j] = true
			if k > 0 && tl.owned[k-1] >= j {
				t.Fatalf("tile %d owned list not ascending: %v", i, tl.owned)
			}
			if &tl.owned[k] != &f.routeArena[total] {
				t.Fatalf("tile %d owned[%d] does not alias the route arena", i, k)
			}
			total++
		}
	}
	if total != 23 {
		t.Fatalf("routed %d users, want 23", total)
	}
	maxLoad, mean := f.lastMax, f.lastMean
	wantMax := 0
	for _, l := range f.load {
		if l > wantMax {
			wantMax = l
		}
	}
	if maxLoad != wantMax || mean != 23.0/4 {
		t.Fatalf("imbalance = (%d, %v), want (%d, %v)", maxLoad, mean, wantMax, 23.0/4)
	}
}
