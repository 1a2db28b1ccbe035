// Package obs is the simulator's telemetry core: log-bucketed latency
// histograms with percentile queries, named counters and gauges in a
// Registry, and span/trace recording that emits Chrome trace-event JSON
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The package exists because the paper's central complaint is opacity —
// "no tools exist to pinpoint tail latencies" until CPMU-style counters
// ship (§3.2) — and a simulated stack can expose exactly that
// visibility. Everything here is observation-only: recording never
// feeds back into simulated time, so a run instrumented with obs is
// behaviourally identical to an uninstrumented one. Disabled paths are
// allocation-free; nil *Trace, *Counter and *Gauge receivers are
// no-ops, so call sites need no guards.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: histSubBuckets buckets per power of two
// gives a worst-case relative error of 2^(1/histSubBuckets)-1 (~2.2%)
// on percentile queries, with bounded memory and no sample truncation —
// unlike a raw sample slice, a histogram never has to stop recording.
// The covered range [2^histMinExp, 2^histMaxExp) spans sub-nanosecond
// component times up to multi-hour wall times; values outside clamp to
// the edge buckets.
const (
	histSubBuckets = 32
	histMinExp     = -16
	histMaxExp     = 48
	histBuckets    = (histMaxExp - histMinExp) * histSubBuckets
)

// Histogram is a log-bucketed distribution of non-negative values
// (latencies in ns, wall times in ms — any one unit per histogram).
// Memory is a fixed bucket array: recording never allocates and never
// truncates, however many samples arrive. All methods are safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	// merged holds each Merge'd source's sum as a separate part; reads
	// fold the parts in value order so the total is independent of
	// merge arrival order. Workers merge per-cell histograms in
	// completion order, float addition is not associative, and the run
	// manifest pins byte-identity across runs — summing in a canonical
	// order is what keeps the last ulp deterministic.
	merged []float64
	min    float64
	max    float64
	// exemplars maps bucket index → the most recent exemplar that
	// landed there (lazily allocated: histograms that never see
	// RecordExemplar pay nothing). Exemplars join metrics to traces:
	// the prom encoder renders them as OpenMetrics `# {trace_id="..."}`
	// suffixes so an operator walks alert → bucket → trace.
	exemplars map[int]Exemplar
}

// Exemplar is one sampled observation annotated with the trace that
// produced it. Time is when the sample was recorded.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

// NewHistogram returns an empty histogram. This is the only allocation
// a histogram ever performs.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value onto its bucket, clamping to the edges. It
// returns exactly what bucketFormula does, without calling math.Log2
// for values inside the histogram's range: a value's float64 exponent
// picks a row of mantissa thresholds at which the formula's bucket
// steps up, and counting the thresholds at or below its mantissa gives
// the bucket.
func bucketIndex(v float64) int {
	bits := math.Float64bits(v)
	r := int(bits>>52) - 1023 - histMinExp // sign bit, NaN and Inf fall outside
	if r < 0 || r >= len(bucketRows) {
		return bucketFormula(v)
	}
	row := bucketRows[r].Load()
	if row == nil {
		row = buildBucketRow(r)
	}
	m := bits & (1<<52 - 1)
	if m == 0 {
		return row.exact
	}
	k := int(row.start[m>>46])
	for m >= row.steps[k] {
		k++
	}
	return row.first + k
}

// bucketFormula is the definition bucketIndex implements: the bucket
// floor(log2(v)*histSubBuckets), clamped, with everything not positive
// in bucket 0.
func bucketFormula(v float64) int {
	if !(v > 0) { // also catches NaN
		return 0
	}
	idx := int(math.Floor(math.Log2(v)*histSubBuckets)) - histMinExp*histSubBuckets
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketRow is bucketFormula over the values 2^e*(1+m/2^52) of one
// exponent e. An exact power of two (m = 0), which math.Log2 computes
// by a separate path, lands in exact; above it the formula starts at
// first and steps up by one at each threshold in steps, which ends
// with a sentinel above every mantissa. A row can have
// histSubBuckets+1 thresholds: math.Log2 rounds mantissas just below
// 2^52 into the octave above. start[m>>46] counts the thresholds at
// or below the first mantissa sharing m's top six bits; thresholds lie
// more than 2^46 apart, so at most a couple of steps remain to count.
type bucketRow struct {
	exact, first int
	steps        [histSubBuckets + 2]uint64
	start        [64]uint8
}

// bucketRows holds one lazily built row per exponent in [histMinExp,
// histMaxExp); values outside it clamp to an edge bucket or are not
// positive, and take bucketFormula. Building every row at start-up
// would cost a few milliseconds per process.
var bucketRows [histMaxExp - histMinExp]atomic.Pointer[bucketRow]

// buildBucketRow finds row r's thresholds by bisecting bucketFormula
// over the mantissa, and publishes the row. Goroutines racing to build
// the same row compute identical rows.
func buildBucketRow(r int) *bucketRow {
	exp := uint64(r+histMinExp+1023) << 52
	f := func(m uint64) int { return bucketFormula(math.Float64frombits(exp | m)) }
	const top = 1 << 52
	row := &bucketRow{exact: f(0), first: f(1)}
	n := 0
	for b, last := row.first+1, f(top-1); b <= last; b++ {
		lo, hi := uint64(1), uint64(top-1) // f(lo) < b <= f(hi)
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; f(mid) < b {
				lo = mid
			} else {
				hi = mid
			}
		}
		row.steps[n] = hi
		n++
	}
	for i := n; i < len(row.steps); i++ {
		row.steps[i] = top
	}
	for c := range row.start {
		k := 0
		for row.steps[k] <= uint64(c)<<46 {
			k++
		}
		row.start[c] = uint8(k)
	}
	bucketRows[r].Store(row)
	return row
}

// bucketValue returns the geometric midpoint of bucket i, the value
// percentile queries report for samples landing in it.
func bucketValue(i int) float64 {
	return math.Exp2((float64(i)+0.5)/histSubBuckets + histMinExp)
}

// Record adds one sample. Non-finite values (NaN, ±Inf) are dropped:
// one bad sample must not poison Sum/Mean for the run, and the
// registry's JSON snapshot could not marshal them anyway.
func (h *Histogram) Record(v float64) {
	h.mu.Lock()
	h.record(v)
	h.mu.Unlock()
}

// record is Record for a caller that holds h.mu or is h's only user
// (see DeviceObserver). It returns the sample's bucket, or -1 when the
// sample was dropped.
func (h *Histogram) record(v float64) int {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	idx := bucketIndex(v)
	h.counts[idx]++
	return idx
}

// RecordExemplar adds one sample like Record and, when traceID is
// non-empty, remembers it as the exemplar for the bucket it fell in
// (latest sample wins — the freshest trace is the one an operator can
// still act on). Distribution state is identical to a plain Record:
// exemplars only surface in Export, never in Summarize, so manifests
// are unaffected by who recorded with a trace attached.
func (h *Histogram) RecordExemplar(v float64, traceID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx := h.record(v); idx >= 0 && traceID != "" {
		if h.exemplars == nil {
			h.exemplars = map[int]Exemplar{}
		}
		h.exemplars[idx] = Exemplar{Value: v, TraceID: traceID, Time: time.Now()}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// sumLocked folds directly recorded samples and merged parts into the
// total, adding parts smallest-first so the result does not depend on
// the order Merge calls arrived in.
func (h *Histogram) sumLocked() float64 {
	if len(h.merged) == 0 {
		return h.sum
	}
	parts := append([]float64(nil), h.merged...)
	sort.Float64s(parts)
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total + h.sum
}

// Sum returns the sum of recorded samples (exact, not bucketed).
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sumLocked()
}

// Mean returns the exact mean of recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sumLocked() / float64(h.n)
}

// Min returns the smallest recorded sample (exact; 0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest recorded sample (exact; 0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns the p-th percentile (0-100) of recorded samples,
// NaN when empty. The answer is a bucket midpoint clamped to the exact
// observed [min, max], so the relative error is bounded by the bucket
// width and p=0 / p=100 are exact.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.percentileLocked(p)
}

func (h *Histogram) percentileLocked(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds o's samples into h. Merging a histogram into itself is a
// no-op; a nil o is ignored.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h {
		return
	}
	o.mu.Lock()
	counts := o.counts
	n, min, max := o.n, o.min, o.max
	parts := append([]float64{o.sum}, o.merged...)
	var exemplars map[int]Exemplar
	if len(o.exemplars) > 0 {
		exemplars = make(map[int]Exemplar, len(o.exemplars))
		for i, e := range o.exemplars {
			exemplars[i] = e
		}
	}
	o.mu.Unlock()
	if n == 0 {
		return
	}
	h.mu.Lock()
	if h.n == 0 || min < h.min {
		h.min = min
	}
	if h.n == 0 || max > h.max {
		h.max = max
	}
	h.n += n
	// Keep the source's sum as a separate part rather than folding it
	// into h.sum now: sumLocked adds parts in value order, making the
	// total independent of merge arrival order.
	h.merged = append(h.merged, parts...)
	for i := range counts {
		h.counts[i] += counts[i]
	}
	for i, e := range exemplars {
		if cur, ok := h.exemplars[i]; !ok || e.Time.After(cur.Time) {
			if h.exemplars == nil {
				h.exemplars = map[int]Exemplar{}
			}
			h.exemplars[i] = e
		}
	}
	h.mu.Unlock()
}

// HistogramBucket is one cumulative bucket of an exported histogram:
// Count samples were ≤ UpperBound. Exports list only the boundaries
// where the cumulative count grows, so a histogram with k distinct
// populated buckets exports k entries regardless of the fixed bucket
// array's size.
type HistogramBucket struct {
	UpperBound float64
	Count      uint64
	// Exemplar, when non-nil, is the most recent trace-annotated sample
	// that fell in this bucket (the non-cumulative bucket, even though
	// Count is cumulative — per OpenMetrics exemplar semantics).
	Exemplar *Exemplar
}

// HistogramExport is the full-fidelity dump encoders (e.g. obs/prom)
// consume: exact count/sum/min/max plus the cumulative bucket ladder.
// All fields come from one critical section, so Count always equals the
// last bucket's cumulative count.
type HistogramExport struct {
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	Buckets []HistogramBucket
}

// Export captures the histogram's state at bucket granularity.
func (h *Histogram) Export() HistogramExport {
	h.mu.Lock()
	defer h.mu.Unlock()
	ex := HistogramExport{Count: h.n, Sum: h.sumLocked(), Min: h.min, Max: h.max}
	var cum uint64
	for i := range h.counts {
		if h.counts[i] == 0 {
			continue
		}
		cum += h.counts[i]
		b := HistogramBucket{
			UpperBound: bucketUpperBound(i),
			Count:      cum,
		}
		if e, ok := h.exemplars[i]; ok {
			e := e
			b.Exemplar = &e
		}
		ex.Buckets = append(ex.Buckets, b)
	}
	return ex
}

// bucketUpperBound returns bucket i's inclusive upper bound — the `le`
// value Prometheus-style cumulative exports use.
func bucketUpperBound(i int) float64 {
	return math.Exp2(float64(i+1)/histSubBuckets + histMinExp)
}

// Summary is the JSON-friendly digest of a histogram. Percentile fields
// are zero (not NaN) when the histogram is empty so the struct always
// marshals.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Summarize returns the histogram's digest.
func (h *Histogram) Summarize() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return Summary{}
	}
	sum := h.sumLocked()
	return Summary{
		Count: h.n,
		Sum:   sum,
		Mean:  sum / float64(h.n),
		Min:   h.min,
		Max:   h.max,
		P50:   h.percentileLocked(50),
		P90:   h.percentileLocked(90),
		P99:   h.percentileLocked(99),
		P999:  h.percentileLocked(99.9),
	}
}
