package obs

import (
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/moatlab/melody/internal/sim"
)

// exactPercentile computes the reference percentile by full sort.
func exactPercentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if ex := h.Export(); ex.Summary != (Summary{}) || ex.Buckets != nil {
		t.Fatalf("empty export = %+v", ex)
	}
	if !math.IsNaN(h.percentileLocked(50)) {
		t.Fatal("empty histogram percentile should be NaN")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Log-normal-ish latencies spanning 3 decades, the CPMU's regime.
	r := sim.NewRand(7)
	h := NewHistogram()
	var xs []float64
	for i := 0; i < 200_000; i++ {
		v := 80 + 400*r.Float64()*r.Float64()
		if r.Float64() < 0.01 {
			v += 5000 * r.Float64() // tail events
		}
		xs = append(xs, v)
		h.Record(v)
	}
	ex := h.Export()
	if ex.Count != uint64(len(xs)) {
		t.Fatalf("count = %d, want %d (histograms must not truncate)", ex.Count, len(xs))
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		got, want := h.percentileLocked(p), exactPercentile(xs, p)
		if rel := math.Abs(got-want) / want; rel > 0.04 {
			t.Fatalf("p%v = %.1f, exact %.1f (rel err %.1f%% > 4%%)", p, got, want, rel*100)
		}
	}
	// Extremes are exact.
	if h.percentileLocked(0) != ex.Min || h.percentileLocked(100) != ex.Max {
		t.Fatal("p0/p100 not exact min/max")
	}
}

func TestHistogramMonotonePercentiles(t *testing.T) {
	r := sim.NewRand(11)
	h := NewHistogram()
	for i := 0; i < 10_000; i++ {
		h.Record(r.Float64() * 1e6)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		v := h.percentileLocked(p)
		if v < prev {
			t.Fatalf("percentiles not monotone: p%v = %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0, -5, math.NaN(), 1e-30, 1e30} {
		h.Record(v) // must not panic; finite values clamp to edge buckets
	}
	// NaN is dropped (non-finite samples never poison Sum/Mean); the
	// four finite values are kept.
	if n := h.Export().Count; n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Record(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Record(float64(i))
	}
	a.Merge(b)
	ex := a.Export()
	if ex.Count != 200 {
		t.Fatalf("merged count = %d", ex.Count)
	}
	if ex.Min != 1 || ex.Max != 200 {
		t.Fatalf("merged min/max = %v/%v", ex.Min, ex.Max)
	}
	if got := a.percentileLocked(50); math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("merged p50 = %v, want ~100", got)
	}
	a.Merge(nil) // no-op
	a.Merge(a)   // self-merge no-op, must not deadlock
	if a.Export().Count != 200 {
		t.Fatal("nil/self merge changed the histogram")
	}
	empty := NewHistogram()
	empty.Merge(a)
	if ex := empty.Export(); ex.Count != 200 || ex.Min != 1 {
		t.Fatal("merge into empty lost state")
	}
}

// TestHistogramMergeEmptyIntoFull: the reverse direction of the
// empty-merge case — folding an empty histogram in must leave every
// statistic untouched, in particular min (an empty histogram's zero
// min must not leak in as a spurious minimum).
func TestHistogramMergeEmptyIntoFull(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Record(10)
	h.Merge(NewHistogram())
	if ex := h.Export(); ex.Count != 2 || ex.Min != 5 || ex.Max != 10 || ex.Sum != 15 {
		t.Fatalf("empty merge perturbed state: count=%d min=%v max=%v sum=%v",
			ex.Count, ex.Min, ex.Max, ex.Sum)
	}
}

// TestHistogramMergeEdgeBuckets: samples clamped to the edge buckets
// (below 2^histMinExp, above 2^histMaxExp, and zero/negative) must
// survive a merge with exact counts, sums, and min/max — the clamp
// affects only percentile resolution, never the exact statistics.
func TestHistogramMergeEdgeBuckets(t *testing.T) {
	tiny, huge := NewHistogram(), NewHistogram()
	tiny.Record(1e-30)
	tiny.Record(0)
	tiny.Record(-3)
	huge.Record(1e30)
	huge.Record(2e30)

	h := NewHistogram()
	h.Merge(tiny)
	h.Merge(huge)
	ex := h.Export()
	if ex.Count != 5 {
		t.Fatalf("count = %d, want 5", ex.Count)
	}
	if ex.Min != -3 || ex.Max != 2e30 {
		t.Fatalf("min/max = %v/%v, want -3/2e30", ex.Min, ex.Max)
	}
	if want := 1e-30 - 3 + 1e30 + 2e30; math.Abs(ex.Sum-want) > 1e-12*want {
		t.Fatalf("sum = %v, want %v", ex.Sum, want)
	}
	// Percentile extremes stay exact (clamped to observed min/max).
	if h.percentileLocked(0) != -3 || h.percentileLocked(100) != 2e30 {
		t.Fatalf("p0/p100 = %v/%v", h.percentileLocked(0), h.percentileLocked(100))
	}
}

// TestHistogramMergeMinMaxInterleaved: when the merged ranges overlap,
// min/max must come from whichever side holds the extreme, in either
// merge direction.
func TestHistogramMergeMinMaxInterleaved(t *testing.T) {
	mk := func(vals ...float64) *Histogram {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(v)
		}
		return h
	}
	a := mk(2, 50)
	a.Merge(mk(1, 40))
	if ex := a.Export(); ex.Min != 1 || ex.Max != 50 {
		t.Fatalf("a min/max = %v/%v, want 1/50", ex.Min, ex.Max)
	}
	b := mk(1, 40)
	b.Merge(mk(2, 50))
	if ex := b.Export(); ex.Min != 1 || ex.Max != 50 {
		t.Fatalf("b min/max = %v/%v, want 1/50", ex.Min, ex.Max)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := sim.NewRand(uint64(g) + 1)
			for i := 0; i < 10_000; i++ {
				h.Record(r.Float64() * 100)
			}
		}(g)
	}
	wg.Wait()
	if n := h.Export().Count; n != 80_000 {
		t.Fatalf("concurrent count = %d, want 80000", n)
	}
}

func TestBucketIndexValueRoundTrip(t *testing.T) {
	// Every bucket's representative value must map back to that bucket.
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(bucketValue(i)); got != i {
			t.Fatalf("bucketIndex(bucketValue(%d)) = %d", i, got)
		}
	}
}

// TestBucketIndexMatchesFormula requires the table-driven bucketIndex
// to agree exactly with bucketFormula: on random values across
// [2^-20, 2^60], within 1000 ulps of every threshold of every row, at
// every row's edges, and on values outside every row.
func TestBucketIndexMatchesFormula(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := bucketIndex(v), bucketFormula(v); got != want {
			t.Fatalf("bucketIndex(%v) [bits %#x] = %d, bucketFormula = %d", v, math.Float64bits(v), got, want)
		}
	}
	r := sim.NewRand(3)
	for i := 0; i < 5_000_000; i++ {
		if i%2 == 0 {
			check(math.Exp2(-20 + 80*r.Float64()))
		} else {
			exp := uint64(1023-20+r.Uint64n(81)) << 52
			check(math.Float64frombits(exp | r.Uint64()>>12))
		}
	}
	for i := range bucketRows {
		row := buildBucketRow(i)
		exp := uint64(i+histMinExp+1023) << 52
		for _, m := range []uint64{0, 1, 2, 1<<52 - 2, 1<<52 - 1} {
			check(math.Float64frombits(exp | m))
		}
		for _, th := range row.steps {
			if th == 1<<52 {
				break
			}
			for d := -1000; d <= 1000; d++ {
				check(math.Float64frombits(exp + th + uint64(d)))
			}
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1070, 0x1p-1023, math.Nextafter(0x1p-1022, 0),
		0x1p-1022, 0x1p-17, 0x1p-16, 0x1p47, 0x1p48, math.Nextafter(0x1p48, 0), 0x1p60,
	} {
		check(v)
	}
}

func TestHistogramNonFiniteIgnored(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	h.Record(math.NaN())
	h.Record(math.Inf(1))
	h.Record(math.Inf(-1))
	h.Record(30)
	s := h.Export().Summary
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2 (non-finite samples must be dropped)", s.Count)
	}
	if s.Sum != 40 || s.Min != 10 || s.Max != 30 {
		t.Fatalf("sum/min/max = %v/%v/%v, want 40/10/30", s.Sum, s.Min, s.Max)
	}
	for name, v := range map[string]float64{"sum": s.Sum, "mean": s.Mean, "min": s.Min,
		"max": s.Max, "p50": s.P50, "p99": s.P99} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("summary %s = %v corrupted by non-finite input", name, v)
		}
	}
}

// TestHistogramPercentileMonotoneProperty is the property test behind
// the percentile contract: for any recorded distribution — including
// edge-bucket clamps, repeated values and non-finite noise — the
// percentile must be non-decreasing in p and pinned to min/max at the ends.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	for trial := uint64(0); trial < 25; trial++ {
		r := sim.NewRand(1000 + trial)
		h := NewHistogram()
		n := 1 + int(r.Uint64()%3000)
		for i := 0; i < n; i++ {
			v := math.Exp2(70*r.Float64() - 20) // spans and overflows both edges
			switch r.Uint64() % 8 {
			case 0:
				v = 0
			case 1:
				v = math.NaN() // dropped, must not disturb monotonicity
			}
			h.Record(v)
		}
		ex := h.Export()
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 0.25 {
			v := h.percentileLocked(p)
			if math.IsNaN(v) {
				if ex.Count == 0 {
					break
				}
				t.Fatalf("trial %d: percentile(%v) = NaN with %d samples", trial, p, ex.Count)
			}
			if v < prev {
				t.Fatalf("trial %d: percentiles not monotone: p%v = %v < %v", trial, p, v, prev)
			}
			prev = v
		}
		if ex.Count > 0 {
			if h.percentileLocked(0) != ex.Min || h.percentileLocked(100) != ex.Max {
				t.Fatalf("trial %d: p0/p100 = %v/%v, want exact min/max %v/%v",
					trial, h.percentileLocked(0), h.percentileLocked(100), ex.Min, ex.Max)
			}
		}
	}
}

func TestHistogramExportBuckets(t *testing.T) {
	h := NewHistogram()
	if ex := h.Export(); ex.Count != 0 || len(ex.Buckets) != 0 {
		t.Fatalf("empty export = %+v", ex)
	}
	r := sim.NewRand(3)
	for i := 0; i < 5000; i++ {
		h.Record(50 + 1000*r.Float64())
	}
	ex := h.Export()
	if ex.Count != 5000 {
		t.Fatalf("export count = %d", ex.Count)
	}
	prevUB, prevCum := math.Inf(-1), uint64(0)
	for _, b := range ex.Buckets {
		if b.UpperBound <= prevUB {
			t.Fatalf("bucket bounds not increasing: %v after %v", b.UpperBound, prevUB)
		}
		if b.Count <= prevCum {
			t.Fatalf("cumulative counts not increasing: %d after %d", b.Count, prevCum)
		}
		prevUB, prevCum = b.UpperBound, b.Count
	}
	if last := ex.Buckets[len(ex.Buckets)-1].Count; last != ex.Count {
		t.Fatalf("last cumulative bucket %d != count %d", last, ex.Count)
	}
	// Every recorded value must be ≤ its bucket's upper bound: the p100
	// sample sits inside the last bucket.
	if ub := ex.Buckets[len(ex.Buckets)-1].UpperBound; ex.Max > ub {
		t.Fatalf("max %v above last bucket bound %v", ex.Max, ub)
	}
}

// TestHistogramMergeOrderIndependentSum: workers merge per-cell
// histograms in completion order, which varies run to run; float
// addition is not associative, so a naive running sum wobbles at the
// last ulp and breaks the manifest's byte-identity contract. The
// merged total must be bit-identical for every arrival order.
func TestHistogramMergeOrderIndependentSum(t *testing.T) {
	rng := sim.NewRand(11)
	const parts = 12
	cells := make([]*Histogram, parts)
	for i := range cells {
		cells[i] = NewHistogram()
		for j := 0; j < 500; j++ {
			// Awkward magnitudes spanning ~12 decades make naive
			// summation order-sensitive almost surely.
			cells[i].Record(math.Exp(rng.Float64()*28 - 4))
		}
	}
	merge := func(order []int) (sum, mean float64) {
		h := NewHistogram()
		for _, idx := range order {
			h.Merge(cells[idx])
		}
		ex := h.Export()
		return ex.Sum, ex.Mean
	}
	order := make([]int, parts)
	for i := range order {
		order[i] = i
	}
	wantSum, wantMean := merge(order)
	for trial := 0; trial < 20; trial++ {
		for i := parts - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		if sum, mean := merge(order); sum != wantSum || mean != wantMean {
			t.Fatalf("trial %d: sum/mean %v/%v != %v/%v (order %v)",
				trial, sum, mean, wantSum, wantMean, order)
		}
	}
	// Chained merges (a into b, b into c) propagate parts, not a
	// collapsed running sum: still order-independent.
	b := NewHistogram()
	b.Merge(cells[0])
	b.Merge(cells[1])
	c := NewHistogram()
	c.Merge(b)
	c.Merge(cells[2])
	d := NewHistogram()
	d.Merge(cells[2])
	d.Merge(b)
	if c.Export().Sum != d.Export().Sum {
		t.Fatalf("chained merge order changed sum: %v != %v", c.Export().Sum, d.Export().Sum)
	}
}
