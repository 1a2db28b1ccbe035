package obs

import (
	"testing"
	"time"
)

func TestRecordExemplarAttachesToBucket(t *testing.T) {
	h := NewHistogram()
	h.Record(1.0)
	h.RecordExemplar(4.0, "4bf92f3577b34da6a3ce929d0e0e4736")
	ex := h.Export()
	if len(ex.Buckets) != 2 {
		t.Fatalf("exported %d buckets, want 2", len(ex.Buckets))
	}
	if ex.Buckets[0].Exemplar != nil {
		t.Fatal("un-annotated bucket grew an exemplar")
	}
	e := ex.Buckets[1].Exemplar
	if e == nil {
		t.Fatal("annotated bucket lost its exemplar")
	}
	if e.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || e.Value != 4.0 {
		t.Fatalf("exemplar = %+v", *e)
	}
	if e.Time.IsZero() {
		t.Fatal("exemplar has no timestamp")
	}
}

func TestRecordExemplarLatestWins(t *testing.T) {
	h := NewHistogram()
	h.RecordExemplar(4.0, "aaaa")
	h.RecordExemplar(4.0, "bbbb")
	ex := h.Export()
	if e := ex.Buckets[0].Exemplar; e == nil || e.TraceID != "bbbb" {
		t.Fatalf("exemplar = %+v, want latest (bbbb)", ex.Buckets[0].Exemplar)
	}
}

func TestRecordExemplarEmptyTraceIsPlainRecord(t *testing.T) {
	h := NewHistogram()
	h.RecordExemplar(4.0, "")
	ex := h.Export()
	if ex.Count != 1 {
		t.Fatalf("count = %d, want 1", ex.Count)
	}
	if e := ex.Buckets[0].Exemplar; e != nil {
		t.Fatalf("empty trace id stored exemplar %+v", *e)
	}
}

func TestRecordExemplarIdenticalDistribution(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for _, v := range []float64{0.1, 1, 4, 1e6} {
		a.Record(v)
		b.RecordExemplar(v, "4bf92f3577b34da6a3ce929d0e0e4736")
	}
	if a.Export().Summary != b.Export().Summary {
		t.Fatal("RecordExemplar perturbed the distribution digest")
	}
}

func TestMergeCarriesExemplars(t *testing.T) {
	src := NewHistogram()
	src.RecordExemplar(4.0, "from-src")
	dst := NewHistogram()
	dst.Record(4.0)
	dst.Merge(src)
	if e := dst.Export().Buckets[0].Exemplar; e == nil || e.TraceID != "from-src" {
		t.Fatalf("merge dropped exemplar: %+v", dst.Export().Buckets[0].Exemplar)
	}

	// Newer exemplar wins regardless of merge direction.
	older := NewHistogram()
	older.RecordExemplar(4.0, "older")
	time.Sleep(2 * time.Millisecond)
	newer := NewHistogram()
	newer.RecordExemplar(4.0, "newer")
	newer.Merge(older)
	if e := newer.Export().Buckets[0].Exemplar; e == nil || e.TraceID != "newer" {
		t.Fatalf("older exemplar replaced newer: %+v", newer.Export().Buckets[0].Exemplar)
	}
}
