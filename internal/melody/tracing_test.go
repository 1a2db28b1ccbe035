package melody

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/tracespan"
	"github.com/moatlab/melody/internal/workload"
)

// tracingSpec is a cheap but real run: one experiment, a few cells.
func tracingSpec() spec.RunSpec {
	return spec.RunSpec{
		Version:      spec.Version,
		Experiments:  []string{"fig8f"},
		Workloads:    5,
		Instructions: 120_000,
		Warmup:       30_000,
		Seed:         1,
		Workers:      2,
	}
}

// TestExecuteSpanTree drives the real execution path under a traced
// context and asserts the acceptance-criteria chain: the caller's span
// (the job worker's "exec" in production) parents a run span, which
// parents an experiment span, whose leaves are cell spans.
func TestExecuteSpanTree(t *testing.T) {
	store := tracespan.NewStore()
	tr := tracespan.NewTracer(store)
	ctx, execSpan := tr.StartRoot(context.Background(), "exec", tracespan.SpanContext{})

	sp := tracingSpec()
	out, err := Execute(ctx, sp, ExecHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Interrupted {
		t.Fatal("run interrupted")
	}
	execSpan.End()

	sum, spans, ok := store.Get(execSpan.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	roots := tracespan.BuildTree(spans)
	if len(roots) != 1 || roots[0].Name != "exec" {
		t.Fatalf("tree roots = %d (%q), want single exec root", len(roots), sum.Root)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "run" {
		t.Fatalf("exec children = %+v, want one run span", roots[0].Children)
	}
	run := roots[0].Children[0]
	hash, _ := sp.Normalized().Hash()
	if got := run.Attr("spec_hash"); got != hash {
		t.Fatalf("run span spec_hash = %q, want %q", got, hash)
	}
	if len(run.Children) != 1 || run.Children[0].Name != "experiment" {
		t.Fatalf("run children = %+v, want one experiment span", run.Children)
	}
	exp := run.Children[0]
	if got := exp.Attr("experiment"); got != "fig8f" {
		t.Fatalf("experiment span id attr = %q", got)
	}
	if len(exp.Children) == 0 {
		t.Fatal("experiment span has no cell children")
	}
	for _, cell := range exp.Children {
		if cell.Name != "cell" {
			t.Fatalf("experiment child = %q, want cell", cell.Name)
		}
		if len(cell.Children) != 0 {
			t.Fatal("cell spans must be leaves")
		}
		if cell.Attr("workload") == "" || cell.Attr("config") == "" || cell.Attr("outcome") == "" {
			t.Fatalf("cell span missing attrs: %+v", cell.Attrs)
		}
	}
	// The trace summary's spec hash joins /traces to the manifest store.
	if sum.SpecHash != hash {
		t.Fatalf("trace summary spec_hash = %q, want %q", sum.SpecHash, hash)
	}
}

// TestManifestParityTracingOnOff pins the observation-only contract:
// the same spec run with and without a traced context yields
// byte-identical manifests under StripHostTime.
func TestManifestParityTracingOnOff(t *testing.T) {
	sp := tracingSpec()
	run := func(ctx context.Context) []byte {
		tel := NewTelemetry()
		out, err := Execute(ctx, sp, ExecHooks{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		m := *out.Manifest
		m.StripHostTime()
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	plain := run(context.Background())

	tr := tracespan.NewTracer(tracespan.NewStore())
	ctx, span := tr.StartRoot(context.Background(), "exec", tracespan.SpanContext{})
	traced := run(ctx)
	span.End()

	if !bytes.Equal(plain, traced) {
		i := 0
		for i < len(plain) && i < len(traced) && plain[i] == traced[i] {
			i++
		}
		t.Fatalf("manifests differ at byte %d with tracing on vs off", i)
	}
	// Sanity: the traced run actually recorded spans.
	if tr.Store().Stats().Added == 0 {
		t.Fatal("traced run recorded no spans — parity check proved nothing")
	}
	// And neither manifest mentions tracing at all.
	var m map[string]any
	if err := json.Unmarshal(plain, &m); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("trace_id")) {
		t.Fatal("manifest leaked trace ids")
	}
}

// TestTraceExportLayout pins the Perfetto file of a -j 2 run with a
// Trace attached and no span in ctx: the engine roots its own run →
// experiment → cell spans, and the trace is their export. Each
// experiment is one "experiment" event; each cell that returned a
// result is one "cell" event on its worker's track, carrying the cell's
// attributes, never overlapping another cell on that track, and lying
// inside an experiment's interval. The root span must not leak into
// results: the manifest is byte-identical with the Trace set or unset.
func TestTraceExportLayout(t *testing.T) {
	sp := tracingSpec()
	sp.Experiments = []string{"fig8f", "fig8c"}
	run := func(trace *obs.Trace) (*Telemetry, []byte) {
		tel := NewTelemetry()
		tel.Trace = trace
		out, err := Execute(context.Background(), sp, ExecHooks{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		m := *out.Manifest
		m.StripHostTime()
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return tel, raw
	}
	_, plain := run(nil)
	tel, traced := run(obs.NewTrace())
	if !bytes.Equal(plain, traced) {
		t.Fatal("manifest differs with a Trace attached")
	}

	experiments := map[string]obs.Event{}
	var cells []obs.Event
	for _, ev := range traceEvents(t, tel.Trace) {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "experiment":
			id, _ := ev.Args["experiment"].(string)
			if _, dup := experiments[id]; dup {
				t.Fatalf("experiment %q traced twice", id)
			}
			experiments[id] = ev
		case "cell":
			cells = append(cells, ev)
		}
	}
	if len(experiments) != len(sp.Experiments) {
		t.Fatalf("%d experiment events, want %d: %v", len(experiments), len(sp.Experiments), experiments)
	}
	// fig8f and fig8c submit every cell through runAll, so each cache
	// lookup is one cell that returned a result.
	c := tel.CacheStats()
	if want := int(c.Hits + c.Misses + c.Waits); len(cells) != want {
		t.Fatalf("%d cell events, want %d", len(cells), want)
	}
	const eps = 1e-3 // µs: float rounding of back-to-back stamps
	ends := map[int]float64{}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Ts < cells[j].Ts })
	for _, ev := range cells {
		for _, k := range []string{"workload", "config", "outcome", "worker"} {
			if v, _ := ev.Args[k].(string); v == "" {
				t.Fatalf("cell event missing %q: %+v", k, ev.Args)
			}
		}
		if w := ev.Args["worker"].(string); w != strconv.Itoa(ev.Tid) {
			t.Fatalf("cell of worker %s on track %d", w, ev.Tid)
		}
		if ev.Tid < 0 || ev.Tid >= sp.Workers {
			t.Fatalf("cell on track %d at -j %d", ev.Tid, sp.Workers)
		}
		if end, ok := ends[ev.Tid]; ok && ev.Ts < end-eps {
			t.Fatalf("cells overlap on track %d: one starts at %.3f µs, the previous ends at %.3f µs", ev.Tid, ev.Ts, end)
		}
		ends[ev.Tid] = ev.Ts + ev.Dur
		inside := false
		for _, e := range experiments {
			inside = inside || (ev.Ts >= e.Ts-eps && ev.Ts+ev.Dur <= e.Ts+e.Dur+eps)
		}
		if !inside {
			t.Fatalf("cell event outside every experiment: %+v", ev)
		}
	}
}

// TestNoTracerCellPathZeroAlloc pins the disabled path's cost at zero
// allocations: the per-cell instrumentation sequence (span lookup plus
// post-completion reporting) with no span in ctx.
func TestNoTracerCellPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	req := RunRequest{Spec: workload.Spec{Name: "w0"}, Config: MemConfig{Name: "Local"}}
	allocs := testing.AllocsPerRun(1000, func() {
		parent := tracespan.SpanFrom(ctx)
		var t0 time.Time
		if parent != nil {
			t0 = time.Now()
		}
		cellChild(parent, 0, req, t0, cacheHit)
	})
	if allocs != 0 {
		t.Fatalf("untraced cell path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkUntracedCellOverhead is the benchmark guard behind the
// acceptance criterion; run with -benchmem to see 0 B/op, 0 allocs/op.
func BenchmarkUntracedCellOverhead(b *testing.B) {
	ctx := context.Background()
	req := RunRequest{Spec: workload.Spec{Name: "w0"}, Config: MemConfig{Name: "Local"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parent := tracespan.SpanFrom(ctx)
		var t0 time.Time
		if parent != nil {
			t0 = time.Now()
		}
		cellChild(parent, 0, req, t0, cacheHit)
	}
}
