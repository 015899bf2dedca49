package exp

import (
	"fmt"
	"sort"

	"fluxtrack/internal/deploy"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/trace"
	"fluxtrack/internal/traffic"
)

// traceRun holds one trace-driven run: the asynchronous collection schedule
// of 20 campus users mapped onto the sensor field.
type traceRun struct {
	paths     []trace.TimedPath // mapped onto the 30x30 field
	stretches []float64
	rounds    int
}

// buildTraceRun synthesizes a campus, generates 20 user traces, compresses
// the timeline by 100 (as the paper does with the Dartmouth set), windows a
// segment, and maps the 50-landmark region onto the sensor field.
func buildTraceRun(cfg Config, seed uint64) (traceRun, error) {
	src := rng.New(seed)
	campusArea := geom.Square(1000)
	campus, err := trace.GenerateCampus(campusArea, 500, src)
	if err != nil {
		return traceRun{}, err
	}
	region := geom.NewRect(geom.Pt(250, 250), geom.Pt(750, 750))
	landmarks := campus.Landmarks(region, 50)
	if len(landmarks) < 10 {
		return traceRun{}, fmt.Errorf("exp: only %d landmark APs in region", len(landmarks))
	}

	const numUsers = 20
	records, err := trace.Generate(trace.Campus{Area: region, APs: landmarks}, trace.GenConfig{
		NumUsers: numUsers,
		Duration: 400000, // ~4.6 days of campus activity
		MinDwell: 300,    // long dwells: few users collect per window (§5.C)
	}, src)
	if err != nil {
		return traceRun{}, err
	}
	records, err = trace.Compress(records, 100)
	if err != nil {
		return traceRun{}, err
	}
	rounds := cfg.Rounds * 3 // asynchronous schedules need a longer window
	// Window a mid-trace segment so users are already roaming.
	records = trace.Window(records, 1000, 1000+float64(rounds))

	paths := trace.Paths(records, landmarks)
	// Iterate users in sorted order: map iteration order is randomized per
	// run, and the stretch draws below consume src sequentially, so an
	// unsorted walk would pair users with different stretches on every run.
	users := make([]string, 0, len(paths))
	for user := range paths {
		users = append(users, user)
	}
	sort.Strings(users)
	run := traceRun{rounds: rounds}
	for _, user := range users {
		run.paths = append(run.paths, paths[user].MapRect(region, geom.Square(30)))
		run.stretches = append(run.stretches, src.Uniform(1, 3))
	}
	if len(run.paths) == 0 {
		return traceRun{}, fmt.Errorf("exp: trace window contains no users")
	}
	return run, nil
}

// activeInWindow returns the users with a data collection in (t-1, t].
func (r traceRun) activeInWindow(t float64) []int {
	var out []int
	for i, tp := range r.paths {
		for _, ct := range tp.Times {
			if ct > t-1 && ct <= t {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// traceTrial replays one run through the tracker and returns the mean
// tracking error over the second half of the window (errors measured only
// on rounds where a user actually collects, against the nearest active
// tracker estimate — identities are anonymous to the adversary).
func traceTrial(cfg Config, kind deploy.Kind, sampleFrac float64, vmax float64, seed uint64) (float64, error) {
	run, err := buildTraceRun(cfg, seed)
	if err != nil {
		return 0, err
	}
	scc := defaultScenarioCfg()
	scc.Deployment = kind
	sc := cfg.scenario(scc, seed+1)
	src := rng.New(seed + 2)
	sniffer, err := sc.NewSniffer(sampleFrac, src)
	if err != nil {
		return 0, err
	}
	tc := cfg.tracker(vmax)
	tc.ActiveSetLimit = 4
	tracker, err := sniffer.NewTracker(len(run.paths), tc, seed+3)
	if err != nil {
		return 0, err
	}

	var errs []float64
	for round := 1; round <= run.rounds; round++ {
		t := float64(round)
		activeIdx := run.activeInWindow(t)
		users := make([]traffic.User, 0, len(activeIdx))
		truths := make([]geom.Point, 0, len(activeIdx))
		for _, i := range activeIdx {
			pos := sc.Field().Clamp(run.paths[i].At(t))
			users = append(users, traffic.User{Pos: pos, Stretch: run.stretches[i], Active: true})
			truths = append(truths, pos)
		}
		obs, err := sniffer.Observe(users, 0, src)
		if err != nil {
			return 0, err
		}
		res, err := tracker.Step(t, obs)
		if err != nil {
			return 0, err
		}
		if round <= run.rounds/2 || len(truths) == 0 {
			continue
		}
		var activeEst []geom.Point
		for _, est := range res.Estimates {
			if est.Active {
				activeEst = append(activeEst, est.Mean)
			}
		}
		if len(activeEst) == 0 {
			continue
		}
		// Each true collection is matched against the nearest active
		// estimate; estimates may be reused when the tracker under-counts.
		for _, truth := range truths {
			best := -1.0
			for _, est := range activeEst {
				if d := est.Dist(truth); best < 0 || d < best {
					best = d
				}
			}
			errs = append(errs, best)
		}
	}
	if len(errs) == 0 {
		return 0, fmt.Errorf("exp: trace trial produced no measurable rounds")
	}
	return stats.Mean(errs), nil
}

// kindAxis is the deployment column axis of Figs 10a and 10b.
var kindAxis = axis[deploy.Kind]{
	vals:   []deploy.Kind{deploy.PerturbedGrid, deploy.UniformRandom},
	labels: []string{"perturbed-grid", "random"},
	ids:    []int{int(deploy.PerturbedGrid), int(deploy.UniformRandom)},
}

// Fig10a regenerates Figure 10(a): trace-driven tracking error vs the
// percentage of sampling nodes, for perturbed-grid and purely random
// deployments.
func Fig10a(cfg Config) (Table, error) {
	if err := cfg.ownTrackers(); err != nil {
		return Table{}, err
	}
	cfg = cfg.withDefaults()
	cells, err := sweep(cfg, "fig10a", pctAxis, kindAxis, func(pct int, kind deploy.Kind, seed uint64) ([]float64, error) {
		e, err := traceTrial(cfg, kind, float64(pct)/100, 5, seed)
		return []float64{e}, err
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "fig10a",
		Title:   "Trace-driven tracking error vs percentage of sampling nodes",
		Paper:   "error below 3 at 10%+ reports with perturbed grids; random deployment ~1.5x worse",
		Columns: append([]string{"pct"}, kindAxis.labels...),
		Rows:    sweepRows(pctAxis.labels, cells),
	}, nil
}

// Fig10b regenerates Figure 10(b): trace-driven tracking error vs the
// resampling radius (the tracker's assumed maximum user speed), at 10%
// sampling.
func Fig10b(cfg Config) (Table, error) {
	if err := cfg.ownTrackers(); err != nil {
		return Table{}, err
	}
	cfg = cfg.withDefaults()
	radii := newAxis([]float64{4, 6, 8, 10, 12}, f2, func(radius float64) int { return int(radius) * 10 })
	cells, err := sweep(cfg, "fig10b", radii, kindAxis, func(radius float64, kind deploy.Kind, seed uint64) ([]float64, error) {
		e, err := traceTrial(cfg, kind, 0.1, radius, seed)
		return []float64{e}, err
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:      "fig10b",
		Title:   "Trace-driven tracking error vs resampling radius (10% sampling)",
		Paper:   "robust to the enlarged prediction disc: error grows only slightly with the radius",
		Columns: append([]string{"radius"}, kindAxis.labels...),
		Rows:    sweepRows(radii.labels, cells),
	}, nil
}
