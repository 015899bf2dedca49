package plot

import (
	"strings"
	"testing"
)

func TestBarsBasic(t *testing.T) {
	out, err := Bars([]string{"a", "bb"}, []float64{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	// The larger value gets the full width, the smaller about half.
	if !strings.Contains(lines[1], strings.Repeat("#", 10)) {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Errorf("half bar = %d #s, want 5: %q", strings.Count(lines[0], "#"), lines[0])
	}
}

func TestBarsValidation(t *testing.T) {
	if _, err := Bars([]string{"a"}, []float64{1, 2}, 10); err == nil {
		t.Error("mismatched lengths must error")
	}
	out, err := Bars(nil, nil, 10)
	if err != nil || out != "" {
		t.Errorf("empty input: %q, %v", out, err)
	}
}

func TestBarsZeroValues(t *testing.T) {
	out, err := Bars([]string{"x", "y"}, []float64{0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "#") {
		t.Errorf("all-zero bars rendered marks: %q", out)
	}
}

func TestLineBasic(t *testing.T) {
	out, err := Lines([][]float64{{0, 1, 2, 3}}, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// hi label + 5 rows + lo label
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7", len(lines))
	}
	if lines[0] != "3" || lines[6] != "0" {
		t.Errorf("axis labels = %q, %q; want 3, 0", lines[0], lines[6])
	}
	// Increasing series: first column mark in the bottom row, last in top.
	if lines[1][19] != '1' {
		t.Errorf("top-right mark missing: %q", lines[1])
	}
	if lines[5][0] != '1' {
		t.Errorf("bottom-left mark missing: %q", lines[5])
	}
}

func TestLinesMultipleSeries(t *testing.T) {
	out, err := Lines([][]float64{{0, 1}, {1, 0}}, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Errorf("series glyphs missing: %q", out)
	}
}

func TestLinesDegenerate(t *testing.T) {
	if _, err := Lines([][]float64{{1}}, 1, 1); err == nil {
		t.Error("tiny chart must error")
	}
	out, err := Lines(nil, 10, 5)
	if err != nil || out != "" {
		t.Errorf("empty series: %q, %v", out, err)
	}
	out, err = Lines([][]float64{{}}, 10, 5)
	if err != nil || out != "" {
		t.Errorf("series of empty slices: %q, %v", out, err)
	}
	// Constant series must not divide by zero.
	if _, err := Lines([][]float64{{5, 5, 5}}, 10, 4); err != nil {
		t.Errorf("constant series errored: %v", err)
	}
}
