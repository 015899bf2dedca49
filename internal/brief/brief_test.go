package brief

import (
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

func scenario(t testing.TB, seed uint64) *core.Scenario {
	t.Helper()
	sc, err := core.NewScenario(core.ScenarioConfig{}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestBriefValidation(t *testing.T) {
	sc := scenario(t, 1)
	if _, err := Brief(sc.Network(), sc.Model(), []float64{1}, 1); err == nil {
		t.Error("flux length mismatch must error")
	}
	flux := make([]float64, sc.Network().Len())
	if _, err := Brief(sc.Network(), sc.Model(), flux, 0); err == nil {
		t.Error("zero maxUsers must error")
	}
}

func TestBriefZeroFlux(t *testing.T) {
	sc := scenario(t, 2)
	flux := make([]float64, sc.Network().Len())
	dets, err := Brief(sc.Network(), sc.Model(), flux, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 0 {
		t.Errorf("zero flux produced %d detections", len(dets))
	}
}

func TestBriefSingleUser(t *testing.T) {
	sc := scenario(t, 3)
	user := traffic.User{Pos: geom.Pt(11, 19), Stretch: 2, Active: true}
	flux, err := sc.GroundFlux([]traffic.User{user})
	if err != nil {
		t.Fatal(err)
	}
	dets, err := Brief(sc.Network(), sc.Model(), flux, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1", len(dets))
	}
	if d := dets[0].Pos.Dist(user.Pos); d > 1.5 {
		t.Errorf("detection at %v is %.2f from truth %v", dets[0].Pos, d, user.Pos)
	}
	if dets[0].Stretch <= 0 {
		t.Errorf("fitted stretch = %v, want positive", dets[0].Stretch)
	}
}

func TestBriefThreeUsersRecursive(t *testing.T) {
	// The Figure 4 scenario: three users with mixed traffic; the recursive
	// subtraction must recover all three despite flux cumulation.
	sc := scenario(t, 4)
	users := []traffic.User{
		{Pos: geom.Pt(7, 8), Stretch: 3, Active: true},
		{Pos: geom.Pt(22, 10), Stretch: 2, Active: true},
		{Pos: geom.Pt(14, 24), Stretch: 1.5, Active: true},
	}
	flux, err := sc.GroundFlux(users)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := Brief(sc.Network(), sc.Model(), flux, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 3 {
		t.Fatalf("got %d detections, want 3", len(dets))
	}
	// Every user matched by some detection within 3 units (10% of the
	// field side; residual contamination shifts later peaks slightly).
	for _, u := range users {
		best := 1e18
		for _, d := range dets {
			if dd := d.Pos.Dist(u.Pos); dd < best {
				best = dd
			}
		}
		if best > 3.0 {
			t.Errorf("user at %v unmatched: nearest detection %.2f away", u.Pos, best)
		}
	}
	// Residual energy must decrease monotonically across rounds.
	for i := 1; i < len(dets); i++ {
		if dets[i].ResidualEnergy > dets[i-1].ResidualEnergy {
			t.Errorf("residual energy increased: round %d %v > round %d %v",
				i, dets[i].ResidualEnergy, i-1, dets[i-1].ResidualEnergy)
		}
	}
	// Detections come strongest-first (peak flux non-increasing).
	for i := 1; i < len(dets); i++ {
		if dets[i].PeakFlux > dets[i-1].PeakFlux {
			t.Errorf("peak flux increased across rounds: %v after %v",
				dets[i].PeakFlux, dets[i-1].PeakFlux)
		}
	}
}

func TestBriefStopsEarlyOnCleanMap(t *testing.T) {
	// Asking for more users than exist: the energy stop criterion must cut
	// the recursion short instead of inventing phantom users.
	sc := scenario(t, 5)
	user := traffic.User{Pos: geom.Pt(15, 15), Stretch: 2, Active: true}
	flux, err := sc.GroundFlux([]traffic.User{user})
	if err != nil {
		t.Fatal(err)
	}
	dets, err := Brief(sc.Network(), sc.Model(), flux, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 5 {
		t.Errorf("briefing produced all 5 requested detections for a single user; expected early stop (got %d)", len(dets))
	}
}

func BenchmarkBriefThreeUsers(b *testing.B) {
	sc := scenario(b, 6)
	users := traffic.RandomUsers(sc.Field(), 3, 1, 3, rng.New(7))
	flux, err := sc.GroundFlux(users)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Brief(sc.Network(), sc.Model(), flux, 3); err != nil {
			b.Fatal(err)
		}
	}
}
