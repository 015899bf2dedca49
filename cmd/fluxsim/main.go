// Command fluxsim runs a single fingerprinting scenario and renders the
// network flux as an ASCII heat map (the qualitative view of the paper's
// Figure 1), alongside the attack's localization output.
//
// Usage:
//
//	fluxsim -users 3 -pct 10 -seed 7
//	fluxsim -users 2 -deploy random -noise 0.1
//	fluxsim -users 3 -workers 4   # parallel candidate scoring, same output
//	fluxsim -users 2 -dropout 0.2 -loss 0.1   # localize from a degraded sniff
//	fluxsim -users 2 -delay 0.3               # 30% of reports arrive too late for the sniff
//	fluxsim -users 2 -liars 0.1               # 10% of sniffed sensors lie
//	fluxsim -users 2 -liars 0.1 -robust both  # same attack, robust-fit defense (off or both)
//	fluxsim -users 3 -metrics     # print the run's work counters at exit
//	fluxsim -users 3 -coarse -coarsek 64      # coarse-to-fine candidate shortlist
//	fluxsim -users 4 -shards 2x2 -halo 2      # tiled tracking demo with handoff log
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fluxtrack/internal/core"
	"fluxtrack/internal/deploy"
	"fluxtrack/internal/exp"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluxsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fluxsim", flag.ContinueOnError)
	var (
		users   = fs.Int("users", 3, "number of mobile users")
		pct     = fs.Float64("pct", 10, "percentage of nodes the adversary sniffs")
		nodes   = fs.Int("nodes", 900, "sensor node count")
		deployK = fs.String("deploy", "grid", "deployment: grid or random")
		noise   = fs.Float64("noise", 0, "multiplicative measurement noise sigma")
		seed    = fs.Uint64("seed", 1, "random seed")
		samples = fs.Int("samples", 2000, "candidate positions per user")
		workers = fs.Int("workers", 1, "NLS search worker count (0 = one per CPU)")
		metrics = fs.Bool("metrics", false, "collect work counters (traffic, fault, NLS search) and print the snapshot at exit")
		rounds  = fs.Int("rounds", 8, "tracking rounds for the -shards demo")
		trackN  = fs.Int("trackn", 1000, "SMC prediction samples per user per round in the -shards demo")
	)
	applySearch := exp.BindSearchFlags(fs)
	applyFault := exp.BindFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// fluxsim runs no experiment; the Config only carries the flag values.
	var cfg exp.Config
	if err := applySearch(&cfg); err != nil {
		return err
	}
	if err := applyFault(&cfg); err != nil {
		return err
	}
	if *users <= 0 {
		return fmt.Errorf("need at least one user, got %d", *users)
	}
	// 0 keeps the default; a negative count is an error.
	if err := exp.CheckMin(fs, 0, "samples", "trackn", "rounds", "workers"); err != nil {
		return err
	}

	kind := deploy.PerturbedGrid
	switch *deployK {
	case "grid":
	case "random":
		kind = deploy.UniformRandom
	default:
		return fmt.Errorf("unknown deployment %q (want grid or random)", *deployK)
	}

	src := rng.New(*seed)
	sc, err := core.NewScenario(core.ScenarioConfig{Nodes: *nodes, Deployment: kind}, src)
	if err != nil {
		return err
	}
	var met *obs.Metrics
	if *metrics {
		met = obs.New(0)
		sc.SetMetrics(met)
	}
	userSet := traffic.RandomUsers(sc.Field(), *users, 1, 3, src)
	flux, err := sc.GroundFlux(userSet)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %d nodes (%s), avg degree %.1f, %d users, sniffing %.0f%% of nodes\n\n",
		sc.Network().Len(), kind, sc.Network().AvgDegree(), *users, *pct)
	fmt.Println("network flux pattern (paper Fig 1b; X marks true user positions):")
	fmt.Print(renderFlux(sc, flux, userSet))

	sniffer, err := sc.NewSniffer(*pct/100, src)
	if err != nil {
		return err
	}
	opts := fit.Options{Samples: *samples, TopM: 10, Workers: *workers, Metrics: met,
		Robust: cfg.Robust}
	if cfg.Coarse.Enabled {
		db, err := sniffer.NewFingerprintDB(cfg.Coarse, *workers, met)
		if err != nil {
			return err
		}
		opts.Coarse = &fit.Coarse{DB: db, TopK: cfg.Coarse.TopK}
		fmt.Printf("\ncoarse search: %d fingerprint cells (grid %d), shortlist %d of %d candidates per user\n",
			db.Cells(), db.Res(), cfg.Coarse.TopK, *samples)
	}
	readings, err := sniffer.Observe(userSet, *noise, src)
	if err != nil {
		return err
	}
	if cfg.Liars > 0 {
		adv, err := sniffer.NewAdversary(exp.LiarMix(cfg.Liars), src.Uint64())
		if err != nil {
			return err
		}
		adv.SetMetrics(met)
		readings, err = adv.Apply(readings)
		if err != nil {
			return err
		}
		fmt.Printf("\nbyzantine: %d of %d sniffed sensors compromised (defense: %s)\n",
			adv.NumCompromised(), len(readings), cfg.Robust.Mode)
	}
	var res fit.Result
	if cfg.Fault.Enabled() {
		inj, err := sniffer.NewFaultInjector(cfg.Fault, src.Uint64())
		if err != nil {
			return err
		}
		inj.SetMetrics(met)
		deg, err := inj.Apply(readings)
		if err != nil {
			return err
		}
		fmt.Printf("\ndegraded sniff: %d of %d reports delivered\n", deg.Delivered(), inj.NumSensors())
		res, err = sniffer.LocalizeMasked(deg, *users, opts, src)
		if err != nil {
			return err
		}
	} else {
		prob, err := sniffer.Problem(readings)
		if err != nil {
			return err
		}
		res, err = fit.Localize(prob, *users, opts, src)
		if err != nil {
			return err
		}
	}

	fmt.Println("\nNLS localization from sparse flux samples:")
	best := res.Best[0]
	for j, pos := range best.Positions {
		fmt.Printf("  estimate %d: %v  (fitted stretch factor %.2f)\n", j+1, pos, best.Stretches[j])
	}
	fmt.Println("  true positions:")
	for j, u := range userSet {
		fmt.Printf("  user %d: %v  (stretch %.2f)\n", j+1, u.Pos, u.Stretch)
	}
	errs := matchErrors(best.Positions, userSet)
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	fmt.Printf("  mean matched error: %.2f (%.1f%% of field diameter)\n",
		mean, 100*mean/sc.Field().Diameter())
	if cfg.Shards.Tiles() > 0 {
		if err := runShardDemo(sc, sniffer, userSet, cfg.Shards, *rounds, *trackN, *workers, cfg.Coarse, met, src); err != nil {
			return err
		}
	}
	if met != nil {
		fmt.Println("\nmetrics:")
		fmt.Print(met.Snapshot().Format())
	}
	return nil
}

// renderFlux draws the per-node flux on a character grid, brighter glyph =
// more traffic.
func renderFlux(sc *core.Scenario, flux []float64, users []traffic.User) string {
	const w, h = 60, 30
	glyphs := []byte(" .:-=+*#%@")
	grid := make([][]float64, h)
	counts := make([][]int, h)
	for y := range grid {
		grid[y] = make([]float64, w)
		counts[y] = make([]int, w)
	}
	field := sc.Field()
	var maxCell float64
	net := sc.Network()
	for i := 0; i < net.Len(); i++ {
		p := net.Pos(i)
		x := int(float64(w) * (p.X - field.Min.X) / field.Width())
		y := int(float64(h) * (p.Y - field.Min.Y) / field.Height())
		if x >= w {
			x = w - 1
		}
		if y >= h {
			y = h - 1
		}
		grid[y][x] += flux[i]
		counts[y][x]++
	}
	for y := range grid {
		for x := range grid[y] {
			if counts[y][x] > 0 {
				grid[y][x] /= float64(counts[y][x])
				if grid[y][x] > maxCell {
					maxCell = grid[y][x]
				}
			}
		}
	}
	var b strings.Builder
	for y := h - 1; y >= 0; y-- {
		for x := 0; x < w; x++ {
			ch := byte(' ')
			if counts[y][x] > 0 && maxCell > 0 {
				idx := int(float64(len(glyphs)-1) * grid[y][x] / maxCell)
				ch = glyphs[idx]
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	// Overlay true user positions.
	out := []byte(b.String())
	for _, u := range users {
		x := int(float64(w) * (u.Pos.X - field.Min.X) / field.Width())
		y := int(float64(h) * (u.Pos.Y - field.Min.Y) / field.Height())
		if x >= w {
			x = w - 1
		}
		if y >= h {
			y = h - 1
		}
		row := h - 1 - y
		out[row*(w+1)+x] = 'X'
	}
	return string(out)
}

// matchErrors returns each matched estimate's distance to its true user
// under geom.MatchGreedy, in estimate order.
func matchErrors(estimates []geom.Point, users []traffic.User) []float64 {
	truths := make([]geom.Point, len(users))
	for j, u := range users {
		truths[j] = u.Pos
	}
	match := geom.MatchGreedy(estimates, truths)
	out := make([]float64, len(match))
	for i, j := range match {
		out[i] = estimates[i].Dist(truths[j])
	}
	return out
}
