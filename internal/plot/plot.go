// Package plot renders small ASCII bar charts of experiment table columns.
// Pure text, no dependencies — meant for terminal inspection of experiment
// output, not publication graphics.
//
// Bars is a pure function from data to string that lays out labeled
// horizontal bars scaled to the widest value. Rendering is deterministic
// (no timestamps, no locale formatting), so chart output can be asserted
// byte-for-byte in tests the same way experiment tables are. cmd/fluxbench's
// -chart flag is the only consumer.
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
