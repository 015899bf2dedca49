// Command fluxrec records sniffer observation streams and replays the
// attack offline — the adversary's real workflow: capture traffic-volume
// readings in the field now, fingerprint the users later.
//
// Usage:
//
//	fluxrec record -users 2 -rounds 12 -pct 10 -out obs.jsonl -truth truth.jsonl
//	fluxrec attack -in obs.jsonl -users 2 [-truth truth.jsonl]
//
// The observation format is documented in internal/obslog; recordings from
// real deployments can be replayed through `fluxrec attack` unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"fluxtrack/internal/core"
	"fluxtrack/internal/exp"
	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obslog"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluxrec:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fluxrec record|attack [flags]")
	}
	switch args[0] {
	case "record":
		return record(args[1:])
	case "attack":
		return attack(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want record or attack)", args[0])
	}
}

// truthEntry is one line of the ground-truth side file.
type truthEntry struct {
	Time      float64      `json:"time"`
	Positions []geom.Point `json:"positions"`
}

func record(args []string) error {
	fs := flag.NewFlagSet("fluxrec record", flag.ContinueOnError)
	var (
		users  = fs.Int("users", 2, "number of mobile users")
		rounds = fs.Int("rounds", 12, "observation rounds")
		pct    = fs.Float64("pct", 10, "percentage of nodes sniffed")
		noise  = fs.Float64("noise", 0, "multiplicative measurement noise sigma")
		seed   = fs.Uint64("seed", 1, "random seed")
		out    = fs.String("out", "", "observation output file (required)")
		truth  = fs.String("truth", "", "optional ground-truth output file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -out is required")
	}
	if *users <= 0 || *rounds <= 0 {
		return fmt.Errorf("record: users and rounds must be positive")
	}

	src := rng.New(*seed)
	sc, err := core.NewScenario(core.ScenarioConfig{}, src)
	if err != nil {
		return err
	}
	sniffer, err := sc.NewSniffer(*pct/100, src)
	if err != nil {
		return err
	}

	walks := make([]mobility.Trajectory, *users)
	stretches := make([]float64, *users)
	for i := range walks {
		w, err := mobility.NewRandomWalk(sc.Field(), src.InRect(sc.Field()), 4, *rounds+1, src)
		if err != nil {
			return err
		}
		walks[i] = w
		stretches[i] = src.Uniform(1, 3)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := obslog.NewWriter(f, obslog.Header{
		Field:     sc.Field(),
		Points:    sniffer.Points(),
		HopLength: sc.Calibration().HopLength,
		Comment:   fmt.Sprintf("fluxrec simulation: %d users, %.0f%% sniffed, seed %d", *users, *pct, *seed),
	})
	if err != nil {
		return err
	}

	var truthW io.WriteCloser
	var truthEnc *json.Encoder
	if *truth != "" {
		truthW, err = os.Create(*truth)
		if err != nil {
			return err
		}
		defer truthW.Close()
		truthEnc = json.NewEncoder(truthW)
	}

	for round := 1; round <= *rounds; round++ {
		t := float64(round)
		positions := make([]geom.Point, *users)
		us := make([]traffic.User, *users)
		for i := range walks {
			positions[i] = walks[i].At(t)
			us[i] = traffic.User{Pos: positions[i], Stretch: stretches[i], Active: true}
		}
		obs, err := sniffer.Observe(us, *noise, src)
		if err != nil {
			return err
		}
		if err := w.Append(obslog.Entry{Time: t, Readings: obs}); err != nil {
			return err
		}
		if truthEnc != nil {
			if err := truthEnc.Encode(truthEntry{Time: t, Positions: positions}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d rounds x %d readings to %s\n", *rounds, len(sniffer.Points()), *out)
	return nil
}

func attack(args []string) error {
	fs := flag.NewFlagSet("fluxrec attack", flag.ContinueOnError)
	var (
		in    = fs.String("in", "", "observation input file (required)")
		users = fs.Int("users", 2, "number of users to track")
		truth = fs.String("truth", "", "optional ground-truth file for scoring")
		n     = fs.Int("n", 500, "SMC prediction samples per user")
		m     = fs.Int("m", 10, "SMC kept representatives")
		vmax  = fs.Float64("vmax", 5, "assumed maximum user speed")
		seed  = fs.Uint64("seed", 7, "attack random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("attack: -in is required")
	}
	// 0 keeps the default; a negative count is an error.
	if err := exp.CheckMin(fs, 0, "n", "m"); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	header, entries, err := obslog.Read(f)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("attack: recording has no observations")
	}

	truths, err := loadTruth(*truth)
	if err != nil {
		return err
	}

	model, err := fluxmodel.New(header.Field, header.HopLength/2)
	if err != nil {
		return err
	}
	tracker, err := smc.New(smc.Config{
		Model:        model,
		SamplePoints: header.Points,
		NumUsers:     *users,
		N:            *n,
		M:            *m,
		VMax:         *vmax,
	}, *seed)
	if err != nil {
		return err
	}

	fmt.Printf("replaying %d observations (%d readings each) against %d users\n",
		len(entries), len(header.Points), *users)
	for _, e := range entries {
		res, err := tracker.Step(e.Time, e.Readings)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("t=%5.1f:", e.Time)
		ests := make([]geom.Point, 0, len(res.Estimates))
		for _, est := range res.Estimates {
			line += fmt.Sprintf(" %v", est.Mean)
			ests = append(ests, est.Mean)
		}
		if tr, ok := truths[e.Time]; ok {
			line += fmt.Sprintf("  | matched err %.2f", matchedMean(ests, tr))
		}
		fmt.Println(line)
	}
	return nil
}

// loadTruth reads the optional ground-truth side file into a time index.
func loadTruth(path string) (map[float64][]geom.Point, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	out := make(map[float64][]geom.Point)
	for {
		var e truthEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("truth file: %w", err)
		}
		out[e.Time] = e.Positions
	}
	return out, nil
}

// matchedMean is the mean distance of the estimates geom.MatchGreedy
// pairs with a truth, summed in estimate order; 0 when none pairs.
func matchedMean(ests, truths []geom.Point) float64 {
	match := geom.MatchGreedy(ests, truths)
	if len(match) == 0 {
		return 0
	}
	var sum float64
	for i, j := range match {
		sum += ests[i].Dist(truths[j])
	}
	return sum / float64(len(match))
}
