// Package stats provides the summary statistics used by the evaluation
// harness: means, standard deviations, percentiles and empirical CDF
// values. Every figure in the paper's evaluation section is ultimately a
// table of these quantities.
//
// Functions take plain []float64 and do not mutate their inputs (sorting
// copies first), so experiment code can summarize the same error series
// several ways. Percentile uses linear interpolation between order
// statistics; CDFAt evaluates the empirical distribution function that
// Fig 3a's approximation-error curves are read from. Aggregation across
// parallel trials happens in index order upstream (internal/exp), so
// identical inputs reach this package regardless of worker count.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary captures the descriptive statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Median: Median(xs),
		P90:    Percentile(xs, 90),
		Max:    Max(xs),
	}
}

// String renders a compact one-line form of the summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g p90=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P90, s.Max)
}

// CDFAt returns the empirical probability that a sample value is <= x.
func CDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, v := range xs {
		if v <= x {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}
