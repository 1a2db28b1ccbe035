package hostprof

import (
	"bytes"
	"runtime/pprof"
	"testing"

	"github.com/moatlab/melody/internal/obs/profile"
)

// encodeTestProfile builds a profile with the repo's own encoder —
// parser and encoder round-tripping each other pins both sides of the
// wire format without any external fixture.
func encodeTestProfile(t testing.TB, gz bool) []byte {
	t.Helper()
	p := &profile.Profile{
		SampleTypes: []profile.ValueType{
			{Type: "inuse_objects", Unit: "count"},
			{Type: "inuse_space", Unit: "bytes"},
		},
		DefaultSampleType: "inuse_space",
		DurationNanos:     5e9,
		Samples: []profile.Sample{
			// Encoder stacks are root-first; pprof locations (and the
			// parser's Stack) are leaf-first.
			{Stack: []string{"main", "alloc"}, Values: []int64{3, 4096},
				Labels: []profile.Label{{Key: "job_id", Str: "run-000042"}}},
			{Stack: []string{"main", "serve", "handler"}, Values: []int64{1, 512}},
		},
	}
	if !gz {
		return p.Encode()
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestParseRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		data := encodeTestProfile(t, gz)
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse(gz=%v): %v", gz, err)
		}
		if len(got.SampleTypes) != 2 || got.SampleTypes[1] != (profile.ValueType{Type: "inuse_space", Unit: "bytes"}) {
			t.Fatalf("sample types = %+v", got.SampleTypes)
		}
		if got.DefaultSampleType != "inuse_space" {
			t.Fatalf("default sample type = %q", got.DefaultSampleType)
		}
		if got.DurationNanos != 5e9 {
			t.Fatalf("duration = %d", got.DurationNanos)
		}
		if len(got.Samples) != 2 {
			t.Fatalf("samples = %+v", got.Samples)
		}
		s0 := got.Samples[0]
		if len(s0.Stack) != 2 || s0.Stack[0] != "alloc" || s0.Stack[1] != "main" {
			t.Fatalf("stack not leaf-first: %v", s0.Stack)
		}
		if s0.Values[0] != 3 || s0.Values[1] != 4096 {
			t.Fatalf("values = %v", s0.Values)
		}
		if vs := got.LabelValues("job_id"); len(vs) != 1 || vs[0] != "run-000042" {
			t.Fatalf("job_id label = %v", vs)
		}
		if got.Total(1) != 4608 {
			t.Fatalf("Total(1) = %d", got.Total(1))
		}
		if got.TypeIndex("inuse_space") != 1 || got.TypeIndex("absent") != -1 {
			t.Fatal("TypeIndex lookup wrong")
		}
	}
}

// TestParseRuntimeHeapProfile feeds the parser a real runtime/pprof
// heap profile — the exact bytes the profiler stores — so the parser is
// pinned against the toolchain's writer, not only our own encoder.
func TestParseRuntimeHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.TypeIndex("inuse_space") < 0 {
		t.Fatalf("heap profile missing inuse_space: %+v", got.SampleTypes)
	}
	if len(got.Samples) == 0 {
		t.Fatal("heap profile decoded zero samples")
	}
	for _, s := range got.Samples {
		if len(s.Stack) == 0 {
			t.Fatal("sample with empty stack")
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte{0x1f, 0x8b, 0xff}); err == nil {
		t.Fatal("truncated gzip accepted")
	}
	if _, err := Parse([]byte("not a profile at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDiffHeap(t *testing.T) {
	mk := func(growBytes int64) *profile.Parsed {
		return &profile.Parsed{
			SampleTypes: []profile.ValueType{{Type: "inuse_objects", Unit: "count"}, {Type: "inuse_space", Unit: "bytes"}},
			Samples: []profile.ParsedSample{
				{Stack: []string{"grow", "main"}, Values: []int64{10, 1000 + growBytes}},
				{Stack: []string{"steady", "main"}, Values: []int64{5, 500}},
				{Stack: []string{"shrink", "main"}, Values: []int64{2, 200 - growBytes/10}},
			},
		}
	}
	from, to := mk(0), mk(4000)
	d, err := DiffHeap(from, to, 0)
	if err != nil {
		t.Fatalf("DiffHeap: %v", err)
	}
	if d.SortedBy != "inuse_space" {
		t.Fatalf("SortedBy = %q", d.SortedBy)
	}
	if d.Totals[1] != 4000-400 {
		t.Fatalf("Totals = %v", d.Totals)
	}
	// steady's row is all-zero → dropped; grow ranks above shrink.
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %+v", d.Rows)
	}
	if d.Rows[0].Stack[0] != "grow" || d.Rows[0].Delta[1] != 4000 {
		t.Fatalf("top row = %+v", d.Rows[0])
	}
	if d.Rows[1].Stack[0] != "shrink" || d.Rows[1].Delta[1] != -400 {
		t.Fatalf("second row = %+v", d.Rows[1])
	}

	// Row cap reports the truncation.
	capped, err := DiffHeap(from, to, 1)
	if err != nil {
		t.Fatalf("DiffHeap capped: %v", err)
	}
	if len(capped.Rows) != 1 || capped.RowsTruncated != 1 {
		t.Fatalf("capped = %d rows, %d truncated", len(capped.Rows), capped.RowsTruncated)
	}

	// Mismatched sample types refuse to diff.
	bad := &profile.Parsed{SampleTypes: []profile.ValueType{{Type: "samples", Unit: "count"}}}
	if _, err := DiffHeap(bad, to, 0); err == nil {
		t.Fatal("sample-type mismatch accepted")
	}
}

func TestDiffHeapRealSnapshots(t *testing.T) {
	snap := func() *profile.Parsed {
		var buf bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		p, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		return p
	}
	from := snap()
	sink = make([]byte, 1<<20)
	to := snap()
	d, err := DiffHeap(from, to, 0)
	if err != nil {
		t.Fatalf("DiffHeap on real snapshots: %v", err)
	}
	if d.SortedBy != "inuse_space" {
		t.Fatalf("SortedBy = %q", d.SortedBy)
	}
	sink = nil
}

// sink keeps the allocation in TestDiffHeapRealSnapshots live across
// the second snapshot.
var sink []byte
