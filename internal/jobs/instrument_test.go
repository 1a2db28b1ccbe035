package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// fakeClock is a deterministic, manually advanced time source for the
// manager's queue-wait/exec-duration instrumentation.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// logBuffer collects JSON log lines safely across goroutines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines decodes every complete JSON log line written so far.
func (b *logBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	text := b.buf.String()
	b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

// findLine returns the first line with msg, failing if absent.
func findLine(t *testing.T, lines []map[string]any, msg string) map[string]any {
	t.Helper()
	for _, rec := range lines {
		if rec["msg"] == msg {
			return rec
		}
	}
	t.Fatalf("no %q line in %d log lines", msg, len(lines))
	return nil
}

func TestLifecycleMetricsAndDurations(t *testing.T) {
	clock := newFakeClock()
	g := newGatedExecutor()
	m := New(g.exec, 4)
	m.now = clock.Now
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	st, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	running := waitState(t, m, st.ID, StateRunning)
	// The worker dequeues almost immediately on a fake clock that only
	// we advance, so queue wait is exactly 0 on this run.
	if running.QueueWaitS != 0 {
		t.Fatalf("queue wait = %v, want 0 with a pinned clock", running.QueueWaitS)
	}
	clock.Advance(3 * time.Second)
	close(g.release)
	done := waitState(t, m, st.ID, StateDone)

	if done.ExecS != 3 {
		t.Fatalf("exec_s = %v, want 3", done.ExecS)
	}
	snap := reg.Export()
	if got := snap.Counters["jobs/finished|state=done"]; got != 1 {
		t.Fatalf("done counter = %d, want 1", got)
	}
	qw, ok := snap.Histograms["jobs/queue_wait_seconds"]
	if !ok || qw.Count != 1 {
		t.Fatalf("queue-wait histogram = %+v", qw)
	}
	ex, ok := snap.Histograms["jobs/exec_seconds"]
	if !ok || ex.Count != 1 {
		t.Fatalf("exec histogram = %+v", ex)
	}
	if ex.Max < 3 || ex.Max > 3.0001 {
		t.Fatalf("exec histogram max = %v, want ~3", ex.Max)
	}
}

func TestFailedAndCanceledCounters(t *testing.T) {
	g := newGatedExecutor()
	failing := func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error) {
		g.calls.Add(1)
		g.started <- "x"
		return ExecResult{}, errors.New("device model diverged")
	}
	m := New(failing, 4)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	st, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateFailed)
	if got := reg.Export().Counters["jobs/finished|state=failed"]; got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}

	// Queue one more (the worker is idle now — submit, then drain before
	// it can be picked: stop the worker first).
	cancel()
	// Draining cancels queued jobs and counts them.
	m.StartDrain()
	if _, err := m.Submit(testSpec(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
}

func TestDrainCountsCanceled(t *testing.T) {
	g := newGatedExecutor()
	m := New(g.exec, 4)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	first, err := m.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	second, err := m.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	m.StartDrain()
	canceled := waitState(t, m, second.ID, StateCanceled)
	if canceled.State != StateCanceled {
		t.Fatalf("queued job state = %s", canceled.State)
	}
	if got := reg.Export().Counters["jobs/finished|state=canceled"]; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
	close(g.release)
	waitState(t, m, first.ID, StateDone)
}

// TestTransitionLogsCarryCorrelationIDs drives one job through
// queued→started→finished and asserts every transition line is valid
// JSON carrying the same job_id and spec_hash.
func TestTransitionLogsCarryCorrelationIDs(t *testing.T) {
	buf := &logBuffer{}
	logger, err := svclog.New(buf, svclog.Options{Format: "json", Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedExecutor()
	m := New(g.exec, 4)
	m.Log = logger
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	st, err := m.Submit(testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	close(g.release)
	done := waitState(t, m, st.ID, StateDone)

	// Logging is asynchronous with respect to Status: wait for the
	// terminal line.
	deadline := time.Now().Add(2 * time.Second)
	for {
		lines := buf.lines(t)
		finished := false
		for _, rec := range lines {
			if rec["msg"] == "job finished" {
				finished = true
			}
		}
		if finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job-finished line never logged")
		}
		time.Sleep(time.Millisecond)
	}

	lines := buf.lines(t)
	for _, msg := range []string{"job queued", "job started", "job finished"} {
		rec := findLine(t, lines, msg)
		if rec[svclog.KeyJobID] != st.ID {
			t.Fatalf("%q line job_id = %v, want %s", msg, rec[svclog.KeyJobID], st.ID)
		}
		if rec[svclog.KeySpecHash] != done.SpecHash {
			t.Fatalf("%q line spec_hash = %v, want %s", msg, rec[svclog.KeySpecHash], done.SpecHash)
		}
	}
	queued := findLine(t, lines, "job queued")
	if _, ok := queued["queue_depth"]; !ok {
		t.Fatalf("job-queued line missing queue_depth: %v", queued)
	}
	started := findLine(t, lines, "job started")
	if _, ok := started["queue_wait_s"]; !ok {
		t.Fatalf("job-started line missing queue_wait_s: %v", started)
	}
	fin := findLine(t, lines, "job finished")
	if _, ok := fin["exec_s"]; !ok {
		t.Fatalf("job-finished line missing exec_s: %v", fin)
	}
}

// TestExecutorContextCarriesJobID pins the correlation hand-off: the
// executor's ctx carries the job id so the execution layer can log it.
func TestExecutorContextCarriesJobID(t *testing.T) {
	got := make(chan string, 1)
	exec := func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error) {
		got <- JobIDFrom(ctx)
		return ExecResult{ManifestJSON: []byte(`{}`), Address: "sha256:x"}, nil
	}
	m := New(exec, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	st, err := m.Submit(testSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-got:
		if id != st.ID {
			t.Fatalf("executor ctx job id = %q, want %q", id, st.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("executor never ran")
	}
	if JobIDFrom(context.Background()) != "" {
		t.Fatal("JobIDFrom on a bare context should be empty")
	}
}

// TestUninstrumentedManagerStaysSilent pins the default: no Log, no
// SetMetrics — the manager must run jobs without touching either.
func TestUninstrumentedManagerStaysSilent(t *testing.T) {
	g := newGatedExecutor()
	close(g.release)
	m := New(g.exec, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	st, err := m.Submit(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	m.StartDrain() // nil metrics on the canceled path must not panic
}
