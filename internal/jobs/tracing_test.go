package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

// runTraced submits sp under a root span named "http" and runs the
// worker until the job terminates, returning the trace's span tree.
func runTraced(t *testing.T, exec Executor, sp spec.RunSpec) ([]*tracespan.Node, *tracespan.Store) {
	t.Helper()
	store := tracespan.NewStore()
	tr := tracespan.NewTracer(store)
	m := New(exec, 4)
	m.SetTracer(tr)

	rctx, root := tr.StartRoot(context.Background(), "http", tracespan.SpanContext{})
	st, err := m.SubmitCtx(rctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	root.End() // the request answered 202 long before the job runs

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	fin := waitTerminal(t, m, st.ID)
	cancel()
	<-done
	_ = fin

	_, spans, ok := store.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	return tracespan.BuildTree(spans), store
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	for {
		st, ok := m.Status(id)
		if ok && st.State.Terminal() {
			return st
		}
	}
}

// TestTracedJobSpanChain pins the queue hand-off: an http root span
// captured at SubmitCtx time parents a post-hoc queue span, which
// parents a live exec span, which parents whatever the executor
// records — the http → queue → exec → run chain of the acceptance
// criteria, across goroutines and after the root has ended.
func TestTracedJobSpanChain(t *testing.T) {
	exec := func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error) {
		// Stand-in for melody.Execute's run span.
		_, span := tracespan.Start(ctx, "run")
		span.End()
		return ExecResult{ManifestJSON: []byte(`{}`), Address: "sha256:x"}, nil
	}
	tree, _ := runTraced(t, exec, testSpec(1))

	if len(tree) != 1 || tree[0].Name != "http" {
		t.Fatalf("roots = %+v, want single http root", tree)
	}
	var path []string
	n := tree[0]
	for n != nil {
		path = append(path, n.Name)
		if len(n.Children) == 0 {
			break
		}
		if len(n.Children) != 1 {
			t.Fatalf("span %q has %d children, want 1", n.Name, len(n.Children))
		}
		n = n.Children[0]
	}
	if got := strings.Join(path, ">"); got != "http>queue>exec>run" {
		t.Fatalf("span chain = %q, want http>queue>exec>run", got)
	}

	// queue and exec spans carry the correlation attrs.
	queue := tree[0].Children[0]
	if queue.Attr("job_id") == "" || queue.Attr("spec_hash") == "" {
		t.Fatalf("queue span attrs = %+v", queue.Attrs)
	}
	exec2 := queue.Children[0]
	if got := exec2.Attr("state"); got != string(StateDone) {
		t.Fatalf("exec span state attr = %q, want done", got)
	}
	if exec2.Status != tracespan.StatusOK {
		t.Fatalf("exec span status = %q", exec2.Status)
	}
}

// TestTracedJobFailureMarksExecSpan: a failing executor errors the
// exec span, which pins the whole trace in the store's retention.
func TestTracedJobFailureMarksExecSpan(t *testing.T) {
	exec := func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error) {
		return ExecResult{}, errors.New("boom")
	}
	tree, store := runTraced(t, exec, testSpec(2))
	if len(tree) != 1 {
		t.Fatalf("got %d roots", len(tree))
	}
	execNode := tree[0].Children[0].Children[0]
	if execNode.Name != "exec" || execNode.Status != tracespan.StatusError || execNode.Error != "boom" {
		t.Fatalf("exec span = %+v, want errored with boom", execNode.SpanData)
	}
	if got := execNode.Attr("state"); got != string(StateFailed) {
		t.Fatalf("exec span state = %q", got)
	}
	list := store.List(tracespan.Filter{Status: tracespan.StatusError})
	if len(list) != 1 {
		t.Fatalf("errored-trace filter returned %d traces, want 1", len(list))
	}
}

// TestUntracedSubmitRecordsNothing: Submit without a traced context —
// and SubmitCtx with a bare one — must leave the store empty even with
// a tracer installed.
func TestUntracedSubmitRecordsNothing(t *testing.T) {
	exec := func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error) {
		if tracespan.SpanFrom(ctx) != nil {
			t.Error("untraced job executed with a span in ctx")
		}
		return ExecResult{ManifestJSON: []byte(`{}`), Address: "sha256:x"}, nil
	}
	store := tracespan.NewStore()
	m := New(exec, 4)
	m.SetTracer(tracespan.NewTracer(store))
	st, err := m.Submit(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	waitTerminal(t, m, st.ID)
	cancel()
	<-done
	if n := store.Len(); n != 0 {
		t.Fatalf("untraced submission stored %d traces, want 0", n)
	}
}
