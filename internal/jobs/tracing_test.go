package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

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

// tracedHarness runs a manager whose submissions each arrive under
// their own http root span, and records every event it emits.
type tracedHarness struct {
	m      *Manager
	g      *gatedExecutor
	tr     *tracespan.Tracer
	cancel context.CancelFunc
	traces map[string]string // job id → submitting trace id

	mu  sync.Mutex
	evs []Event
}

func newTracedHarness(t *testing.T, exec Executor) *tracedHarness {
	t.Helper()
	h := &tracedHarness{g: newGatedExecutor(), tr: tracespan.NewTracer(tracespan.NewStore()), traces: map[string]string{}}
	if exec == nil {
		exec = h.g.exec
	}
	h.m = New(exec, 4)
	h.m.SetTracer(h.tr)
	h.m.SetNotify(func(ev Event) {
		h.mu.Lock()
		h.evs = append(h.evs, ev)
		h.mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	done := make(chan struct{})
	go func() { h.m.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
	return h
}

func (h *tracedHarness) submit(t *testing.T, seed uint64) Status {
	t.Helper()
	rctx, root := h.tr.StartRoot(context.Background(), "http", tracespan.SpanContext{})
	defer root.End()
	st, err := h.m.SubmitCtx(rctx, testSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	if root.TraceID() == "" {
		t.Fatal("root span has no trace id")
	}
	h.traces[st.ID] = root.TraceID()
	return st
}

// event polls until the manager has emitted a typ event for job id.
func (h *tracedHarness) event(t *testing.T, id, typ string) Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		for _, ev := range h.evs {
			if ev.JobID == id && ev.Type == typ {
				h.mu.Unlock()
				return ev
			}
		}
		h.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no %s event for %s", typ, id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedJobEventFields pins the JSON fields of each job-level event
// a traced submission emits — the payload a /runs/{id}/events client
// reads — on every lifecycle path. Each one carries the submitting
// request's trace id, the drain-canceled job_finished included.
func TestTracedJobEventFields(t *testing.T) {
	boom := func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error) {
		return ExecResult{}, errors.New("boom")
	}
	for _, c := range []struct {
		name string
		exec Executor // nil: the harness's gated executor
		// drive runs the scenario and returns the job whose event is pinned.
		drive func(t *testing.T, h *tracedHarness) Status
		typ   string
		want  map[string]any // fields beyond type, job, spec_hash and trace_id
	}{
		{"queued", nil, func(t *testing.T, h *tracedHarness) Status {
			return h.submit(t, 1)
		}, EventQueued, map[string]any{"state": "queued"}},
		{"started", nil, func(t *testing.T, h *tracedHarness) Status {
			st := h.submit(t, 1)
			<-h.g.started
			return st
		}, EventStarted, map[string]any{"state": "running"}},
		{"done", nil, func(t *testing.T, h *tracedHarness) Status {
			close(h.g.release)
			return h.submit(t, 1)
		}, EventFinished, map[string]any{"state": "done"}},
		{"interrupted", nil, func(t *testing.T, h *tracedHarness) Status {
			st := h.submit(t, 1)
			<-h.g.started
			h.cancel()
			return st
		}, EventFinished, map[string]any{"state": "done", "interrupted": true}},
		{"failed", boom, func(t *testing.T, h *tracedHarness) Status {
			return h.submit(t, 1)
		}, EventFinished, map[string]any{"state": "failed", "error": "boom"}},
		{"store-answered", nil, func(t *testing.T, h *tracedHarness) Status {
			close(h.g.release)
			waitState(t, h.m, h.submit(t, 1).ID, StateDone)
			return h.submit(t, 1)
		}, EventFinished, map[string]any{"state": "done", "cache_hit": true}},
		{"drain-canceled", nil, func(t *testing.T, h *tracedHarness) Status {
			h.submit(t, 1)
			<-h.g.started
			st := h.submit(t, 2)
			h.m.StartDrain()
			return st
		}, EventFinished, map[string]any{"state": "canceled"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newTracedHarness(t, c.exec)
			st := c.drive(t, h)
			raw, err := json.Marshal(h.event(t, st.ID, c.typ))
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			want := map[string]any{"type": c.typ, "job": st.ID, "spec_hash": st.SpecHash, "trace_id": h.traces[st.ID]}
			maps.Copy(want, c.want)
			for _, k := range []string{"type", "state", "job", "spec_hash", "trace_id", "cache_hit", "interrupted", "error"} {
				if got[k] != want[k] {
					t.Errorf("%s = %v, want %v (event %s)", k, got[k], want[k], raw)
				}
			}
		})
	}
}
