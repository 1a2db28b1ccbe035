package tracespan

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Valid() {
		t.Fatal("parsed context invalid")
	}
	if got := sc.Trace.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %q", got)
	}
	if got := sc.Span.String(); got != "00f067aa0ba902b7" {
		t.Fatalf("span id = %q", got)
	}
	if got := sc.Traceparent(); got != h {
		t.Fatalf("re-rendered traceparent = %q, want %q", got, h)
	}
}

// FuzzParseTraceparent requires ParseTraceparent never to panic, and
// every header it accepts to name the ids it carries: Traceparent()
// renders them back as the header's own trace and parent fields, so a
// sampled version-00 header formats back to itself exactly.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		out := sc.Traceparent()
		if want := "00-" + h[3:52] + "-01"; out != want {
			t.Fatalf("ParseTraceparent(%q).Traceparent() = %q, want %q", h, out, want)
		}
		if h[:2] == "00" && h[53:] == "01" && out != h {
			t.Fatalf("ParseTraceparent(%q).Traceparent() = %q", h, out)
		}
		if again, err := ParseTraceparent(out); err != nil || again != sc {
			t.Fatalf("re-parsing %q gave %+v, %v; want %+v", out, again, err, sc)
		}
	})
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range []string{
		"",
		"00-abc-def-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad separator
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",       // non-hex flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",      // trailing junk
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 must be exactly 55 chars
	} {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

func TestParseTraceparentAcceptsFutureVersionSuffix(t *testing.T) {
	// Per W3C, higher versions may append fields after the flags —
	// version 00 may not (exactly 55 chars), which the malformed-header
	// test above pins.
	sc, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Valid() {
		t.Fatal("future-version context invalid")
	}
}

func TestSpanTreeAcrossComponents(t *testing.T) {
	store := NewStore()
	tr := NewTracer(store)

	// HTTP root continuing a remote traceparent.
	remote, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	ctx, root := tr.StartRoot(context.Background(), "http POST /runs", remote, String("req_id", "r1"))
	if got := root.TraceID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("root trace id = %q, want remote trace continued", got)
	}

	// A queued hand-off: capture the context, end the root, resume later.
	parent := ContextFrom(ctx)
	root.End()

	t0 := time.Now().Add(-time.Second)
	qsc := tr.Record(parent, "queue", t0, t0.Add(200*time.Millisecond), String("job_id", "run-000001"))
	ectx, execSpan := tr.StartChild(context.Background(), qsc, "exec", String("spec_hash", "sha256:abc"))

	// Downstream layers use ctx-carried Start.
	rctx, runSpan := Start(ectx, "run")
	_, cellParent := Start(rctx, "experiment", String("experiment", "fig5"))
	cellParent.Child("cell", t0, t0.Add(10*time.Millisecond), String("workload", "w"), String("outcome", "computed"))
	cellParent.End()
	runSpan.End()
	execSpan.SetError("boom")
	execSpan.End()

	sum, spans, ok := store.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not retrievable")
	}
	if sum.Status != StatusError {
		t.Fatalf("trace status = %q, want error (exec failed)", sum.Status)
	}
	if sum.SpecHash != "sha256:abc" {
		t.Fatalf("trace spec_hash = %q", sum.SpecHash)
	}
	if sum.Root != "http POST /runs" {
		t.Fatalf("trace root = %q", sum.Root)
	}
	if len(spans) != 6 {
		t.Fatalf("stored %d spans, want 6", len(spans))
	}
	for _, sd := range spans {
		if sd.TraceID != root.TraceID() {
			t.Fatalf("span %q escaped onto trace %q", sd.Name, sd.TraceID)
		}
	}

	// The tree: http is the single root (its parent is the remote span,
	// absent from the store), and the chain reaches the cell leaf.
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Name != "http POST /runs" {
		t.Fatalf("tree roots = %+v, want single http root", roots)
	}
	path := []string{}
	n := roots[0]
	for n != nil {
		path = append(path, n.Name)
		if len(n.Children) == 0 {
			break
		}
		n = n.Children[0]
	}
	want := "http POST /runs>queue>exec>run>experiment>cell"
	if got := strings.Join(path, ">"); got != want {
		t.Fatalf("span chain = %q, want %q", got, want)
	}
}

func TestStartWithoutSpanIsInert(t *testing.T) {
	ctx := context.Background()
	cctx, sp := Start(ctx, "orphan")
	if sp != nil || cctx != ctx {
		t.Fatal("Start on a span-less ctx must return (ctx, nil)")
	}
	// Every nil-span method is a no-op.
	sp.SetAttr("k", "v")
	sp.SetError("x")
	sp.End()
	if sc := sp.Child("c", time.Now(), time.Now()); sc.Valid() {
		t.Fatal("nil span recorded a child")
	}
	if sp.TraceID() != "" || sp.Context().Valid() || sp.Tracer() != nil {
		t.Fatal("nil span leaked identity")
	}
	var tr *Tracer
	if c, s := tr.StartRoot(ctx, "r", SpanContext{}); s != nil || c != ctx {
		t.Fatal("nil tracer started a span")
	}
}

func TestNoSpanPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if sp := SpanFrom(ctx); sp != nil {
			t.Fatal("span from empty ctx")
		}
	})
	if allocs != 0 {
		t.Fatalf("SpanFrom on span-less ctx allocates %.1f/op, want 0", allocs)
	}
}

func TestEndIdempotent(t *testing.T) {
	store := NewStore()
	tr := NewTracer(store)
	_, sp := tr.StartRoot(context.Background(), "once", SpanContext{})
	sp.End()
	sp.End()
	if got := store.Stats().Added; got != 1 {
		t.Fatalf("double End stored %d spans, want 1", got)
	}
}

func TestMirrorRendersServiceSpans(t *testing.T) {
	store := NewStore()
	tr := NewTracer(store)
	perf := obs.NewTrace()
	tr.SetMirror(perf, 3)
	_, sp := tr.StartRoot(context.Background(), "http GET /metrics", SpanContext{})
	sp.End()
	if perf.Len() != 1 {
		t.Fatalf("mirror recorded %d events, want 1", perf.Len())
	}
}
