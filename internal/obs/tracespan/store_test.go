package tracespan

import (
	"fmt"
	"testing"
	"time"
)

// mkSpan builds one synthetic root span for trace id n with the given
// duration and status.
func mkSpan(n int, dur time.Duration, status string) SpanData {
	t0 := time.Unix(1700000000, 0).Add(time.Duration(n) * time.Minute)
	return SpanData{
		TraceID:   fmt.Sprintf("%032x", n+1),
		SpanID:    fmt.Sprintf("%016x", n+1),
		Name:      fmt.Sprintf("trace-%d", n),
		Start:     t0,
		End:       t0.Add(dur),
		DurationS: dur.Seconds(),
		Status:    status,
	}
}

func TestStoreTailBiasedEviction(t *testing.T) {
	// Cap 8 → ceil(8/8) = 1 slowest trace protected. Fill with fast OK
	// traces, one errored and one slow; overflow must evict the oldest
	// plain trace and keep the protected pair.
	st := newStore(8, maxSpans)
	st.Add(mkSpan(0, time.Millisecond, StatusOK)) // oldest plain: the victim
	st.Add(mkSpan(1, time.Second, StatusError))   // errored: pinned
	st.Add(mkSpan(2, time.Hour, StatusOK))        // slowest: pinned
	for n := 3; n < 8; n++ {
		st.Add(mkSpan(n, time.Millisecond, StatusOK))
	}
	st.Add(mkSpan(8, time.Millisecond, StatusOK)) // overflow

	if st.Len() != 8 {
		t.Fatalf("store holds %d traces, want 8", st.Len())
	}
	if _, _, ok := st.Get(mkSpan(0, 0, "").TraceID); ok {
		t.Fatal("oldest plain trace survived eviction")
	}
	if _, _, ok := st.Get(mkSpan(1, 0, "").TraceID); !ok {
		t.Fatal("errored trace was evicted")
	}
	if _, _, ok := st.Get(mkSpan(2, 0, "").TraceID); !ok {
		t.Fatal("slowest trace was evicted")
	}
	if got := st.Stats().Evicted; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestStoreEvictsOldestWhenAllProtected(t *testing.T) {
	st := newStore(2, maxSpans)
	st.Add(mkSpan(0, time.Second, StatusError))
	st.Add(mkSpan(1, time.Second, StatusError))
	st.Add(mkSpan(2, time.Second, StatusError))
	if st.Len() != 2 {
		t.Fatalf("store holds %d traces, want 2", st.Len())
	}
	if _, _, ok := st.Get(mkSpan(0, 0, "").TraceID); ok {
		t.Fatal("all-protected overflow must still evict the oldest")
	}
}

// TestStoreNeverEvictsJustAddedTrace: when every older retained trace
// is protected (sustained errors), the all-protected fallback must
// evict the oldest protected trace — never the trace being added,
// which would orphan every new trace while the stats still count it.
func TestStoreNeverEvictsJustAddedTrace(t *testing.T) {
	st := newStore(2, maxSpans)
	st.Add(mkSpan(0, time.Second, StatusError))
	st.Add(mkSpan(1, time.Second, StatusError))
	fresh := mkSpan(2, time.Millisecond, StatusOK) // fast, OK: unprotected
	st.Add(fresh)
	if st.Len() != 2 {
		t.Fatalf("store holds %d traces, want 2", st.Len())
	}
	if _, spans, ok := st.Get(fresh.TraceID); !ok || len(spans) != 1 {
		t.Fatalf("just-added trace lost to its own eviction: ok=%v spans=%d", ok, len(spans))
	}
	if _, _, ok := st.Get(mkSpan(0, 0, "").TraceID); ok {
		t.Fatal("oldest protected trace should have been the fallback victim")
	}
}

// TestStoreErroredArrivalProtectsItself: the span's status applies to
// its trace before the eviction its own arrival triggers, so a later
// overflow sees the trace as errored (pinned) rather than plain.
func TestStoreErroredArrivalProtectsItself(t *testing.T) {
	st := newStore(2, maxSpans)
	st.Add(mkSpan(0, time.Millisecond, StatusOK))
	st.Add(mkSpan(1, time.Millisecond, StatusError)) // errored on arrival
	st.Add(mkSpan(2, time.Millisecond, StatusOK))    // overflow: evicts trace 0
	if _, _, ok := st.Get(mkSpan(1, 0, "").TraceID); !ok {
		t.Fatal("errored trace evicted despite protection")
	}
	if _, _, ok := st.Get(mkSpan(0, 0, "").TraceID); ok {
		t.Fatal("plain oldest trace survived over an errored one")
	}
}

func TestStoreSpanCapDropsAndCounts(t *testing.T) {
	st := newStore(maxTraces, 2)
	base := mkSpan(0, time.Millisecond, StatusOK)
	for i := 0; i < 5; i++ {
		sd := base
		sd.SpanID = fmt.Sprintf("%016x", i+1)
		st.Add(sd)
	}
	sum, spans, ok := st.Get(base.TraceID)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	if sum.SpansDropped != 3 {
		t.Fatalf("summary drops = %d, want 3", sum.SpansDropped)
	}
	if got := st.Stats().SpansDropped; got != 3 {
		t.Fatalf("stats drops = %d, want 3", got)
	}
}

// TestStoreSpanCapDropStillMarksError: a span rejected at spanCap must
// still contribute its status and time bounds to the trace entry —
// otherwise a trace whose failure arrived after the cap would look OK
// (and fast) to the retention policy and the /traces listing.
func TestStoreSpanCapDropStillMarksError(t *testing.T) {
	st := newStore(maxTraces, 1)
	st.Add(mkSpan(0, time.Millisecond, StatusOK))
	late := mkSpan(0, time.Hour, StatusError)
	late.SpanID = "00000000000000ff"
	st.Add(late) // dropped by spanCap
	sum, spans, ok := st.Get(late.TraceID)
	if !ok || len(spans) != 1 {
		t.Fatalf("trace ok=%v spans=%d, want 1 retained span", ok, len(spans))
	}
	if sum.SpansDropped != 1 {
		t.Fatalf("summary drops = %d, want 1", sum.SpansDropped)
	}
	if sum.Status != StatusError {
		t.Fatalf("dropped errored span did not mark the trace: status=%q", sum.Status)
	}
	if sum.DurationS < time.Hour.Seconds() {
		t.Fatalf("dropped span's bounds ignored: duration_s=%v", sum.DurationS)
	}
}

func TestStoreListFiltersAndOrder(t *testing.T) {
	st := NewStore()
	st.Add(mkSpan(0, time.Millisecond, StatusOK))
	st.Add(mkSpan(1, time.Second, StatusError))
	slow := mkSpan(2, time.Minute, StatusOK)
	slow.Attrs = []Attr{String("spec_hash", "sha256:fff")}
	st.Add(slow)

	all := st.List(Filter{})
	if len(all) != 3 {
		t.Fatalf("unfiltered list = %d traces, want 3", len(all))
	}
	if all[0].TraceID != slow.TraceID {
		t.Fatalf("list not newest-first: head = %s", all[0].TraceID)
	}

	if got := st.List(Filter{MinDuration: 30 * time.Second}); len(got) != 1 || got[0].TraceID != slow.TraceID {
		t.Fatalf("MinDuration filter = %+v", got)
	}
	if got := st.List(Filter{Status: StatusError}); len(got) != 1 || got[0].Status != StatusError {
		t.Fatalf("Status filter = %+v", got)
	}
	if got := st.List(Filter{SpecHash: "sha256:fff"}); len(got) != 1 || got[0].SpecHash != "sha256:fff" {
		t.Fatalf("SpecHash filter = %+v", got)
	}
	if got := st.List(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("Limit filter kept %d, want 2", len(got))
	}
	if got := st.List(Filter{SpecHash: "nope"}); len(got) != 0 {
		t.Fatalf("non-matching SpecHash returned %d traces", len(got))
	}
}

func TestStoreSummaryPicksEarliestRoot(t *testing.T) {
	st := NewStore()
	// Two parentless spans (the real root and an orphan whose parent
	// was dropped): the summary's Root must be the earliest starter.
	late := mkSpan(0, time.Millisecond, StatusOK)
	late.Name, late.SpanID = "orphan", "00000000000000aa"
	late.Start = late.Start.Add(time.Hour)
	root := mkSpan(0, time.Second, StatusOK)
	root.Name = "http POST /runs"
	child := mkSpan(0, time.Millisecond, StatusOK)
	child.Name, child.SpanID, child.ParentID = "cell", "00000000000000bb", root.SpanID
	st.Add(late)
	st.Add(root)
	st.Add(child)
	sum, _, _ := st.Get(root.TraceID)
	if sum.Root != "http POST /runs" {
		t.Fatalf("summary root = %q, want earliest parentless span", sum.Root)
	}
	if sum.Spans != 3 {
		t.Fatalf("summary spans = %d, want 3", sum.Spans)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var st *Store
	st.Add(mkSpan(0, time.Second, StatusOK))
	if st.Len() != 0 || len(st.List(Filter{})) != 0 {
		t.Fatal("nil store not inert")
	}
	if _, _, ok := st.Get("x"); ok {
		t.Fatal("nil store returned a trace")
	}
	if st.Stats() != (StoreStats{}) {
		t.Fatal("nil store has stats")
	}
}
