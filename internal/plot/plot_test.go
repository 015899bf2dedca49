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
