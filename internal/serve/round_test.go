package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fluxtrack/internal/core"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
)

// badRound is one kind of malformed observation round.
type badRound struct {
	name string
	// edit turns the valid round 2 into the malformed one.
	edit func(r smc.Round) smc.Round
	// tracker limits the kind to direct tracker calls: the handler only
	// shape-checks, and the time order is checked where the round steps.
	tracker bool
}

func badRounds(n int) []badRound {
	withReading := func(v float64) func(r smc.Round) smc.Round {
		return func(r smc.Round) smc.Round {
			r.Measured = append([]float64(nil), r.Measured...)
			r.Measured[7] = v
			return r
		}
	}
	return []badRound{
		{name: "short readings", edit: func(r smc.Round) smc.Round { r.Measured = r.Measured[:n-1]; return r }},
		{name: "short present", edit: func(r smc.Round) smc.Round { r.Present = make([]bool, 3); return r }},
		{name: "long age", edit: func(r smc.Round) smc.Round { r.Age = make([]int, n+1); return r }},
		{name: "negative age", edit: func(r smc.Round) smc.Round { r.Age = make([]int, n); r.Age[n-1] = -1; return r }},
		{name: "NaN reading", edit: withReading(math.NaN())},
		{name: "+Inf reading", edit: withReading(math.Inf(1))},
		{name: "NaN T", edit: func(r smc.Round) smc.Round { r.T = math.NaN(); return r }},
		{name: "+Inf T", edit: func(r smc.Round) smc.Round { r.T = math.Inf(1); return r }},
		{name: "repeated T", edit: func(r smc.Round) smc.Round { r.T = 1; return r }, tracker: true},
		{name: "earlier T", edit: func(r smc.Round) smc.Round { r.T = 0.5; return r }, tracker: true},
	}
}

// maskedNaN is the one near-miss that must be accepted: a NaN reading on a
// sensor that did not deliver never reaches the fit.
func maskedNaN(r smc.Round) smc.Round {
	r.Measured = append([]float64(nil), r.Measured...)
	r.Measured[7] = math.NaN()
	r.Present = make([]bool, len(r.Measured))
	for i := range r.Present {
		r.Present[i] = i != 7
	}
	return r
}

// observationBody encodes a round as an observe request. JSON has no
// non-finite numbers, so NaN and ±Inf become the overflowing literal 1e999:
// the nearest body a client can send.
func observationBody(r smc.Round) string {
	num := func(v float64) string {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "1e999"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	readings := make([]string, len(r.Measured))
	for i, v := range r.Measured {
		readings[i] = num(v)
	}
	masks, err := json.Marshal(struct {
		Present []bool `json:"present,omitempty"`
		Age     []int  `json:"age,omitempty"`
	}{r.Present, r.Age})
	if err != nil {
		panic(err)
	}
	body := fmt.Sprintf(`{"t":%s,"readings":[%s]`, num(r.T), strings.Join(readings, ","))
	if len(masks) > 2 {
		body += "," + string(masks[1:len(masks)-1])
	}
	return body + "}"
}

// TestBadRoundRejected is the rejection contract of a malformed round, run
// against every entry point: the plain tracker, a 1×1 and a 2×2 sharded
// field, and POST /observe. Each kind must be refused with
// smc.ErrBadRound (400 over HTTP), consume nothing, and leave the next
// valid round exactly what a twin that never saw the bad one computes. A
// NaN reading on a masked sensor is accepted everywhere a round can carry
// it.
func TestBadRoundRejected(t *testing.T) {
	w := testWorld(t)
	n := len(w.sniffer.Points())
	valid := func(r int) smc.Round { return smc.Round{T: float64(r + 1), Measured: w.clean[r]} }
	base := core.TrackerConfig{N: 60, M: 5, VMax: 5}
	grid := func(rows, cols int) core.TrackerConfig {
		c := base
		c.Shards = shard.Grid{Rows: rows, Cols: cols, Halo: 2}
		c.InitialPositions = w.initial
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  core.TrackerConfig
	}{
		{"smc", base},
		{"field-1x1", grid(1, 1)},
		{"field-2x2", grid(2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() core.StepTracker {
				tr, err := w.sniffer.NewStepTracker(testUsers, tc.cfg, 99)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			tr, twin := build(), build()
			for _, x := range []core.StepTracker{tr, twin} {
				if _, err := x.StepRound(valid(0)); err != nil {
					t.Fatal(err)
				}
			}
			for _, bad := range badRounds(n) {
				if _, err := tr.StepRound(bad.edit(valid(1))); !errors.Is(err, smc.ErrBadRound) {
					t.Errorf("%s: err %v, want ErrBadRound", bad.name, err)
				}
				if tr.Steps() != 1 {
					t.Fatalf("%s: rejected round advanced Steps to %d", bad.name, tr.Steps())
				}
			}
			want, err1 := twin.StepRound(maskedNaN(valid(1)))
			got, err2 := tr.StepRound(maskedNaN(valid(1)))
			if err1 != nil || err2 != nil {
				t.Fatalf("masked NaN refused: %v, %v", err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("rejected rounds changed the next accepted round")
			}
		})
	}

	t.Run("http", func(t *testing.T) {
		srv, hs := startServer(t)
		sw := serveWorld(t, srv)
		valid := func(r int) smc.Round { return smc.Round{T: float64(r + 1), Measured: sw.clean[r]} }
		cfg := TenantConfig{Users: testUsers, Seed: 5, Samples: 60, TrackM: 5}
		createTenant(t, hs.URL, "bad", cfg)
		createTenant(t, hs.URL, "twin", cfg)
		post := func(id string, r smc.Round) (int, string) {
			resp, err := http.Post(hs.URL+"/v1/tenant/"+id+"/observe", "application/json",
				strings.NewReader(observationBody(r)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode, resp.Status
		}
		for _, id := range []string{"bad", "twin"} {
			if code, msg := post(id, valid(0)); code != http.StatusAccepted {
				t.Fatalf("valid round 1: %s", msg)
			}
		}
		waitRounds(t, hs.URL, "bad", 1)
		for _, bad := range badRounds(srv.Sensors()) {
			if bad.tracker {
				continue
			}
			if code, msg := post("bad", bad.edit(valid(1))); code != http.StatusBadRequest {
				t.Errorf("%s: %s, want 400", bad.name, msg)
			}
		}
		for _, id := range []string{"bad", "twin"} {
			if code, msg := post(id, valid(1)); code != http.StatusAccepted {
				t.Fatalf("valid round 2: %s", msg)
			}
		}
		got, want := waitRounds(t, hs.URL, "bad", 2), waitRounds(t, hs.URL, "twin", 2)
		if got.Rounds != 2 || !reflect.DeepEqual(got.Users, want.Users) {
			t.Fatalf("rejected bodies changed the tenant: %d rounds, %+v vs %+v", got.Rounds, got.Users, want.Users)
		}
	})
}
