package tracespan

import (
	"sort"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// Store bounds. maxTraces is sized like the jobs queue: deep enough
// that every trace of a debugging session is still there, small enough
// that the store is always negligible next to one run's manifest.
// maxSpans bounds one trace's spans — a full Sweep48 run is ~150
// cells, so 4096 leaves generous headroom while a runaway producer
// cannot grow a trace without bound.
const (
	maxTraces = 256
	maxSpans  = 4096
)

// slowFrac is the fraction of the store reserved for the slowest
// traces: eviction never removes a trace whose duration ranks in the
// top ceil(cap·slowFrac) among retained traces. Tail-biased retention
// is the point of the store — the paper's method lives on tail
// attribution, and the traces an operator needs tomorrow are the slow
// and the broken ones, not the median.
const slowFrac = 8 // 1/8th of capacity protected as "slowest"

// StoreStats counts the store's lifetime activity (all monotonic).
type StoreStats struct {
	Added        uint64 `json:"spans_added"`
	Traces       uint64 `json:"traces_seen"`
	Evicted      uint64 `json:"traces_evicted"`
	SpansDropped uint64 `json:"spans_dropped"`
}

// Store is a bounded in-memory collection of completed spans grouped
// by trace. Writers are span producers (Tracer.finish); readers are
// the /traces handlers. Retention is tail-biased: when the trace cap
// is hit, the evicted trace is the oldest one that is neither errored
// nor among the slowest — error and slow traces survive until only
// they are left.
type Store struct {
	mu       sync.Mutex
	traceCap int
	spanCap  int
	traces   *obs.Retention[string, *traceEntry]
	stats    StoreStats
}

// traceEntry accumulates one trace's spans and the digest retention
// and listing decisions read.
type traceEntry struct {
	id      string
	spans   []SpanData
	start   time.Time // min span start
	end     time.Time // max span end
	errored bool
	dropped uint64 // spans rejected by spanCap
}

func (e *traceEntry) duration() time.Duration { return e.end.Sub(e.start) }

// NewStore returns a store retaining up to 256 traces of up to 4096
// spans each.
func NewStore() *Store { return newStore(maxTraces, maxSpans) }

func newStore(traceCap, spanCap int) *Store {
	return &Store{
		traceCap: traceCap,
		spanCap:  spanCap,
		traces:   obs.NewRetention[string, *traceEntry](traceCap, 0),
	}
}

// Add files one completed span under its trace, creating the trace on
// first sight and evicting per the retention policy when over cap.
func (s *Store) Add(sd SpanData) {
	if s == nil || sd.TraceID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces.Get(sd.TraceID)
	if !ok {
		e = &traceEntry{id: sd.TraceID, start: sd.Start, end: sd.End}
		s.traces.Put(sd.TraceID, e, 0)
		s.stats.Traces++
	}
	// Apply the span's bounds and status before any retention decision:
	// an errored span must protect its trace during the eviction its own
	// arrival triggers, and a span rejected at spanCap below still marks
	// the trace errored/slow — retention always sees the trace's true
	// extent even when the span itself is dropped.
	if sd.Start.Before(e.start) {
		e.start = sd.Start
	}
	if sd.End.After(e.end) {
		e.end = sd.End
	}
	if sd.Status == StatusError {
		e.errored = true
	}
	if !ok && s.traces.Over() {
		s.evictLocked()
	}
	if len(e.spans) >= s.spanCap {
		e.dropped++
		s.stats.SpansDropped++
		return
	}
	e.spans = append(e.spans, sd)
	s.stats.Added++
}

// evictLocked removes one trace: the oldest that is neither errored
// nor in the protected slowest set, never the trace Add is filing
// right now. When every older retained trace is protected, the oldest
// goes anyway — bounded memory beats perfect retention.
func (s *Store) evictLocked() {
	slowCount := (s.traceCap + slowFrac - 1) / slowFrac
	durs := make([]time.Duration, s.traces.Len())
	for i := range durs {
		durs[i] = s.traces.At(i).duration()
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
	var slowFloor time.Duration
	if slowCount > 0 && slowCount <= len(durs) {
		slowFloor = durs[slowCount-1]
	}
	n, _ := s.traces.Evict(func(e *traceEntry) bool {
		return e.errored || (slowFloor > 0 && e.duration() >= slowFloor)
	}, true, nil)
	s.stats.Evicted += uint64(n)
}

// Len returns the number of retained traces.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces.Len()
}

// Stats returns the store's lifetime counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TraceSummary is one trace's /traces listing row. Status is "error"
// if any span errored. Root is the earliest root span's name (the
// request that started it all); SpecHash is the first spec_hash attr
// any span carries, joining the trace to manifests, jobs and logs.
type TraceSummary struct {
	TraceID      string    `json:"trace_id"`
	Root         string    `json:"root"`
	Start        time.Time `json:"start"`
	DurationS    float64   `json:"duration_s"`
	Status       string    `json:"status"`
	Spans        int       `json:"spans"`
	SpansDropped uint64    `json:"spans_dropped,omitempty"`
	SpecHash     string    `json:"spec_hash,omitempty"`
}

func (s *Store) summaryLocked(e *traceEntry) TraceSummary {
	sum := TraceSummary{
		TraceID:      e.id,
		Start:        e.start,
		DurationS:    e.duration().Seconds(),
		Status:       StatusOK,
		Spans:        len(e.spans),
		SpansDropped: e.dropped,
	}
	if e.errored {
		sum.Status = StatusError
	}
	ids := make(map[string]bool, len(e.spans))
	for _, sd := range e.spans {
		ids[sd.SpanID] = true
	}
	var rootStart time.Time
	for _, sd := range e.spans {
		if !ids[sd.ParentID] && (sum.Root == "" || sd.Start.Before(rootStart)) {
			sum.Root, rootStart = sd.Name, sd.Start
		}
		if sum.SpecHash == "" {
			sum.SpecHash = sd.Attr("spec_hash")
		}
	}
	return sum
}

// Filter selects traces for List. Zero values match everything.
type Filter struct {
	// MinDuration drops traces shorter than this.
	MinDuration time.Duration
	// Status, when "ok" or "error", keeps only matching traces.
	Status string
	// SpecHash keeps only traces whose spans carry this spec_hash attr.
	SpecHash string
	// Limit bounds the result count (0 = no bound).
	Limit int
}

// List returns retained traces newest-first, filtered by f.
func (s *Store) List(f Filter) []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, s.traces.Len())
	for i := s.traces.Len() - 1; i >= 0; i-- {
		sum := s.summaryLocked(s.traces.At(i))
		if f.MinDuration > 0 && sum.DurationS < f.MinDuration.Seconds() {
			continue
		}
		if f.Status != "" && sum.Status != f.Status {
			continue
		}
		if f.SpecHash != "" && sum.SpecHash != f.SpecHash {
			continue
		}
		out = append(out, sum)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Get returns one trace's summary and a copy of its spans (in arrival
// order). ok is false for unknown (or evicted) trace ids.
func (s *Store) Get(traceID string) (TraceSummary, []SpanData, bool) {
	if s == nil {
		return TraceSummary{}, nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces.Get(traceID)
	if !ok {
		return TraceSummary{}, nil, false
	}
	return s.summaryLocked(e), append([]SpanData(nil), e.spans...), true
}
