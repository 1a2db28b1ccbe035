package hostprof

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// testProfiler builds a profiler whose CPU window is 150ms unless cfg
// sets an Interval (the window is half of it).
func testProfiler(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = 300 * time.Millisecond
	}
	return New(cfg)
}

// allTypes is every profile type a round captures.
var allTypes = []string{TypeCPU, TypeHeap, TypeGoroutine, TypeMutex, TypeBlock}

func TestRoundCapturesEveryType(t *testing.T) {
	reg := obs.NewRegistry()
	p := testProfiler(t, Config{
		Registry:   reg,
		JobsDuring: func(from, to time.Time) []string { return []string{"run-000001"} },
	})
	p.round(context.Background(), ReasonInterval)

	for _, typ := range allTypes {
		got := p.Store().List(Filter{Type: typ})
		if len(got) != 1 {
			t.Fatalf("type %s: %d captures, want 1", typ, len(got))
		}
		c := got[0]
		if c.Reason != ReasonInterval {
			t.Fatalf("type %s reason = %q", typ, c.Reason)
		}
		if len(c.Jobs) != 1 || c.Jobs[0] != "run-000001" {
			t.Fatalf("type %s jobs = %v", typ, c.Jobs)
		}
		full, ok := p.Store().Get(c.ID)
		if !ok || len(full.Bytes) == 0 {
			t.Fatalf("type %s payload missing", typ)
		}
		// Every stored payload must be readable by any pprof consumer.
		if _, err := Parse(full.Bytes); err != nil {
			t.Fatalf("type %s payload unparseable: %v", typ, err)
		}
	}
	if v := reg.Counter("hostprof/captures|type=heap").Value(); v != 1 {
		t.Fatalf("captures|type=heap = %v", v)
	}
	if v := reg.Counter("hostprof/rounds|reason=interval").Value(); v != 1 {
		t.Fatalf("rounds|reason=interval = %v", v)
	}
	if v := reg.Gauge("hostprof/store_captures").Value(); v != 5 {
		t.Fatalf("store_captures gauge = %v", v)
	}
}

// TestRoundRestoresProfilingRates pins satellite behavior: mutex and
// block sampling are enabled only inside a round's window, and the
// mutex fraction goes back to whatever it was before.
func TestRoundRestoresProfilingRates(t *testing.T) {
	prev := runtime.SetMutexProfileFraction(3)
	defer runtime.SetMutexProfileFraction(prev)

	p := testProfiler(t, Config{Interval: 40 * time.Millisecond})
	p.round(context.Background(), ReasonInterval)

	if got := runtime.SetMutexProfileFraction(-1); got != 3 {
		t.Fatalf("mutex fraction after round = %d, want the pre-round 3", got)
	}
}

func TestCPUCaptureCarriesPprofLabels(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs a second CPU for sampling under load")
	}
	p := testProfiler(t, Config{Interval: 800 * time.Millisecond})

	// Labeled busy work spanning the capture window — the same shape as
	// the jobs executor's pprof.Do wrapping.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("job_id", "run-000042"), func(context.Context) {
			defer wg.Done()
			x := 1.0
			for ctx.Err() == nil {
				for i := 0; i < 1000; i++ {
					x = x*1.000001 + 0.5
				}
			}
			_ = x
		})
	}
	p.round(context.Background(), ReasonJobStart)
	cancel()
	wg.Wait()

	caps := p.Store().List(Filter{Type: TypeCPU, Reason: ReasonJobStart})
	if len(caps) != 1 {
		t.Fatalf("cpu captures = %d, want 1", len(caps))
	}
	full, _ := p.Store().Get(caps[0].ID)
	parsed, err := Parse(full.Bytes)
	if err != nil {
		t.Fatalf("parse cpu capture: %v", err)
	}
	if len(parsed.Samples) == 0 {
		t.Skip("no CPU samples landed in the window (loaded CI host)")
	}
	for _, v := range parsed.LabelValues("job_id") {
		if v == "run-000042" {
			return
		}
	}
	t.Fatalf("job_id=run-000042 label absent; labels seen: %v", parsed.LabelValues("job_id"))
}

func TestRunLoopTriggerAndShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	p := testProfiler(t, Config{Interval: 40 * time.Millisecond, Registry: reg})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()

	deadline := time.After(5 * time.Second)
	for p.Store().Len() == 0 {
		select {
		case <-deadline:
			t.Fatal("initial round never completed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	p.TriggerCPU(ReasonJobStart)
	for len(p.Store().List(Filter{Reason: ReasonJobStart})) == 0 {
		select {
		case <-deadline:
			t.Fatal("triggered round never completed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on ctx cancel")
	}
}

func TestTriggerNeverBlocks(t *testing.T) {
	reg := obs.NewRegistry()
	p := testProfiler(t, Config{Registry: reg})
	// Nothing is draining the queue: the first sends fill it, the rest
	// drop and count. The call must return regardless.
	for i := 0; i < 20; i++ {
		p.TriggerCPU(ReasonJobStart)
	}
	if v := reg.Counter("hostprof/triggers_dropped").Value(); v != 16 {
		t.Fatalf("triggers_dropped = %v, want 16", v)
	}
	// A nil profiler (observatory without profiling) is a no-op.
	var nilP *Profiler
	nilP.TriggerCPU(ReasonJobStart)
}

// TestConfigDefaults pins the zero Config's interval and the CPU
// window rule: min(5s, Interval/2), so rounds never overlap.
func TestConfigDefaults(t *testing.T) {
	if p := New(Config{}); p.Interval() != 60*time.Second || p.window != 5*time.Second {
		t.Fatalf("zero Config: interval %v, window %v; want 60s and 5s", p.Interval(), p.window)
	}
	for _, c := range []struct{ interval, window time.Duration }{
		{time.Second, 500 * time.Millisecond},
		{10 * time.Second, 5 * time.Second},
		{20 * time.Second, 5 * time.Second},
		{time.Hour, 5 * time.Second},
	} {
		if got := New(Config{Interval: c.interval}).window; got != c.window {
			t.Fatalf("interval %v: window %v, want %v", c.interval, got, c.window)
		}
	}
}

func TestTakeReadingTracksGC(t *testing.T) {
	r0 := TakeReading(0)
	if r0.Goroutines <= 0 || r0.HeapAlloc == 0 {
		t.Fatalf("implausible reading %+v", r0)
	}
	runtime.GC()
	runtime.GC()
	r1 := TakeReading(r0.NumGC)
	if r1.NumGC < r0.NumGC+2 {
		t.Fatalf("NumGC did not advance: %d → %d", r0.NumGC, r1.NumGC)
	}
	if len(r1.PauseNs) != int(r1.NumGC-r0.NumGC) {
		t.Fatalf("PauseNs has %d entries for %d cycles", len(r1.PauseNs), r1.NumGC-r0.NumGC)
	}
}

func TestPausesSince(t *testing.T) {
	var ring [256]uint64
	for c := uint32(1); c <= 300; c++ {
		ring[(c+255)%256] = uint64(c)
	}
	// Normal window.
	got := PausesSince(&ring, 290, 295)
	want := []float64{291, 292, 293, 294, 295}
	if len(got) != len(want) {
		t.Fatalf("PausesSince = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PausesSince = %v, want %v", got, want)
		}
	}
	// Gap wider than the ring: clamped to the newest 256 cycles.
	got = PausesSince(&ring, 10, 300)
	if len(got) != 256 {
		t.Fatalf("wrapped window = %d pauses, want 256", len(got))
	}
	if got[0] != 45 || got[255] != 300 {
		t.Fatalf("wrapped window spans [%v, %v], want [45, 300]", got[0], got[255])
	}
	// No new cycles.
	if got := PausesSince(&ring, 300, 300); got != nil {
		t.Fatalf("empty window = %v", got)
	}
}
