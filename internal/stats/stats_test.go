package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negatives", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Errorf("Min(nil) = %v, want +Inf", got)
	}
	if got := Max(nil); !math.IsInf(got, -1) {
		t.Errorf("Max(nil) = %v, want -Inf", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated Percentile = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		v := Percentile(xs, p)
		return v >= Min(xs) && v <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary: %+v", s)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", got)
	}
	if s.String() == "" {
		t.Error("Summary.String is empty")
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Errorf("CDFAt(2.5) = %v, want 0.5", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Errorf("CDFAt(0) = %v, want 0", got)
	}
	if got := CDFAt(xs, 4); got != 1 {
		t.Errorf("CDFAt(4) = %v, want 1", got)
	}
	if got := CDFAt(nil, 1); got != 0 {
		t.Errorf("CDFAt(nil) = %v, want 0", got)
	}
}
