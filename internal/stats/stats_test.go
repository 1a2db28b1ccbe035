package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("Percentile of empty slice should be NaN")
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile single-element p=%v = %v", p, got)
		}
	}
}

func TestPercentilesMatchSingleCalls(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6}
	ps := []float64{10, 50, 90, 99}
	multi := Percentiles(xs, ps...)
	for i, p := range ps {
		if single := Percentile(xs, p); !almost(multi[i], single, 1e-12) {
			t.Errorf("Percentiles[%v]=%v, Percentile=%v", p, multi[i], single)
		}
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			cur := Percentile(xs, p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Stddev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("Stddev = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Fatal("Pearson with zero variance should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{1})) {
		t.Fatal("Pearson with n<2 should be NaN")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if !almost(slope, 2, 1e-12) || !almost(intercept, 1, 1e-12) {
		t.Fatalf("LinearFit = %v, %v", slope, intercept)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
	if !(s.Min <= s.P25 && s.P25 <= s.P50 && s.P50 <= s.P75 &&
		s.P75 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("summary quantiles not ordered: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
