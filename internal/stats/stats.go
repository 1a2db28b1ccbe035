// Package stats provides the statistical primitives Melody experiments
// rely on: percentiles, correlation, linear fits, and the distribution
// summaries behind the paper's violin plots.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for data the caller has already sorted
// ascending. It avoids the copy and re-sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles evaluates several percentiles with a single sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the smallest element, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient of (xs, ys).
// It returns NaN if the lengths differ, are < 2, or either side has zero
// variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinearFit returns the least-squares slope and intercept of ys ~ xs.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return math.NaN(), math.NaN()
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}

// Summary is a compact distribution description — the data behind one
// violin in the paper's Figure 9a.
type Summary struct {
	N              int
	Mean, Stddev   float64
	Min, Max       float64
	P25, P50, P75  float64
	P90, P99, P999 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: Stddev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		P25:    PercentileSorted(sorted, 25),
		P50:    PercentileSorted(sorted, 50),
		P75:    PercentileSorted(sorted, 75),
		P90:    PercentileSorted(sorted, 90),
		P99:    PercentileSorted(sorted, 99),
		P999:   PercentileSorted(sorted, 99.9),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f p25=%.2f p50=%.2f p75=%.2f p90=%.2f p99=%.2f p99.9=%.2f max=%.2f",
		s.N, s.Mean, s.Stddev, s.Min, s.P25, s.P50, s.P75, s.P90, s.P99, s.P999, s.Max)
}
