// Package plot renders small ASCII charts for the command-line tools:
// horizontal bar charts for error tables and line charts for CDFs and
// per-round error series. Pure text, no dependencies — meant for terminal
// inspection of experiment output, not publication graphics.
//
// Charts are pure functions from data to string: Bars lays out labeled
// horizontal bars scaled to the widest value; Lines rasterizes one or
// more float series onto a character grid. Rendering is deterministic (no
// timestamps, no locale formatting), so chart output can be asserted
// byte-for-byte in tests the same way experiment tables are.
// cmd/fluxbench and cmd/fluxsim are the only consumers.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Bars renders a horizontal bar chart. Labels and values must align; the
// chart scales to maxWidth characters for the largest value.
func Bars(labels []string, values []float64, maxWidth int) (string, error) {
	if len(labels) != len(values) {
		return "", fmt.Errorf("plot: %d labels but %d values", len(labels), len(values))
	}
	if len(values) == 0 {
		return "", nil
	}
	if maxWidth <= 0 {
		maxWidth = 40
	}
	labelW, maxV := 0, 0.0
	for i, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
		if v := values[i]; v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for i, l := range labels {
		v := values[i]
		n := 0
		if maxV > 0 && v > 0 {
			n = int(math.Round(float64(maxWidth) * v / maxV))
			if n == 0 {
				n = 1
			}
		}
		fmt.Fprintf(&b, "%-*s | %s %.3g\n", labelW, l, strings.Repeat("#", n), v)
	}
	return b.String(), nil
}

// Lines renders several series in one chart, each with its own glyph
// (1, 2, 3, ... then letters); later series overwrite earlier ones where
// they collide.
func Lines(series [][]float64, width, height int) (string, error) {
	if len(series) == 0 {
		return "", nil
	}
	if width <= 1 || height <= 1 {
		return "", fmt.Errorf("plot: chart size %dx%d too small", width, height)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range series {
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if maxLen == 0 {
		return "", nil
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	glyphs := "123456789abcdef"
	for si, s := range series {
		if len(s) == 0 {
			continue
		}
		g := glyphs[si%len(glyphs)]
		for i, v := range s {
			x := 0
			if maxLen > 1 {
				x = i * (width - 1) / (maxLen - 1)
			}
			y := int(math.Round(float64(height-1) * (v - lo) / (hi - lo)))
			row := height - 1 - y
			grid[row][x] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%.3g\n", hi)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%.3g\n", lo)
	return b.String(), nil
}
