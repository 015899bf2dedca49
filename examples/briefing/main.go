// Briefing: the full-map attack of §3.C (Figures 1 and 4) — with the flux
// of every node visible, users are identified one per round by peak
// detection, model fitting, and subtraction.
//
// The example prints the flux map before briefing and the residual map
// after each round, so the "peeling" of users is visible.
//
// Run with: go run ./examples/briefing
package main

import (
	"fmt"
	"log"
	"strings"

	"fluxtrack/internal/brief"
	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := rng.New(12)
	scenario, err := core.NewScenario(core.ScenarioConfig{}, src)
	if err != nil {
		return err
	}
	users := []traffic.User{
		{Pos: geom.Pt(7, 8), Stretch: 3, Active: true},
		{Pos: geom.Pt(22, 10), Stretch: 2, Active: true},
		{Pos: geom.Pt(14, 24), Stretch: 1.5, Active: true},
	}
	flux, err := scenario.GroundFlux(users)
	if err != nil {
		return err
	}

	fmt.Println("combined flux of three users (X marks truths):")
	fmt.Print(render(scenario, flux, users))

	dets, err := brief.Brief(scenario.Network(), scenario.Model(), flux, 3)
	if err != nil {
		return err
	}
	fmt.Println("\nbriefing rounds:")
	for i, d := range dets {
		nearest, nd := nearestUser(d.Pos, users)
		fmt.Printf("  round %d: detected %v (stretch %.2f) -> %.2f from user %d\n",
			i+1, d.Pos, d.Stretch, nd, nearest+1)
	}
	if len(dets) < len(users) {
		fmt.Printf("  (%d of %d users found before the residual energy collapsed)\n",
			len(dets), len(users))
	}
	return nil
}

func nearestUser(p geom.Point, users []traffic.User) (int, float64) {
	best, bestD := -1, 0.0
	for i, u := range users {
		if d := p.Dist(u.Pos); best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// render draws the flux as a coarse ASCII heat map.
func render(sc *core.Scenario, flux []float64, users []traffic.User) string {
	const w, h = 60, 20
	glyphs := []byte(" .:-=+*#%@")
	grid := make([][]float64, h)
	counts := make([][]int, h)
	for y := range grid {
		grid[y] = make([]float64, w)
		counts[y] = make([]int, w)
	}
	field := sc.Field()
	net := sc.Network()
	var maxCell float64
	for i := 0; i < net.Len(); i++ {
		p := net.Pos(i)
		x := min(int(float64(w)*(p.X-field.Min.X)/field.Width()), w-1)
		y := min(int(float64(h)*(p.Y-field.Min.Y)/field.Height()), h-1)
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
				ch = glyphs[int(float64(len(glyphs)-1)*grid[y][x]/maxCell)]
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	out := []byte(b.String())
	for _, u := range users {
		x := min(int(float64(w)*(u.Pos.X-field.Min.X)/field.Width()), w-1)
		y := min(int(float64(h)*(u.Pos.Y-field.Min.Y)/field.Height()), h-1)
		out[(h-1-y)*(w+1)+x] = 'X'
	}
	return string(out)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
