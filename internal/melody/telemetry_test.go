package melody

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/tracespan"
	"github.com/moatlab/melody/internal/platform"
)

// TestTelemetryDoesNotPerturbReport pins the telemetry contract: the
// report an experiment renders is byte-identical with and without a
// Telemetry (and Trace) attached, for the same seed and worker count.
func TestTelemetryDoesNotPerturbReport(t *testing.T) {
	o := Options{MaxWorkloads: 8, Instructions: 200_000, Warmup: 50_000, Seed: 1}
	ctx := context.Background()

	plain := NewEngine(o)
	plain.Workers = 4
	repPlain, ok := plain.RunByID(ctx, "fig8f")
	if !ok {
		t.Fatal("fig8f not registered")
	}

	tel := NewTelemetry()
	tel.Trace = obs.NewTrace()
	observed := NewEngine(o)
	observed.Workers = 4
	observed.Obs = tel
	repObs, _ := observed.RunByID(ctx, "fig8f")

	if repPlain.String() != repObs.String() {
		t.Fatalf("telemetry perturbed the report:\n--- without ---\n%s\n--- with ---\n%s",
			repPlain.String(), repObs.String())
	}

	// The run must actually have been observed.
	cells := tel.Cells()
	if len(cells) == 0 {
		t.Fatal("telemetry logged no cells")
	}
	for _, c := range cells {
		if c.Workload == "" || c.Config == "" || c.Platform == "" || c.WallMs < 0 {
			t.Fatalf("malformed cell timing: %+v", c)
		}
	}
	s := tel.Registry.Export()
	if s.Counters["runner/cells_run"] != uint64(len(cells)) {
		t.Fatalf("cells_run = %d, cells logged = %d", s.Counters["runner/cells_run"], len(cells))
	}
	if s.Counters["engine/experiments_run"] != 1 {
		t.Fatalf("experiments_run = %d", s.Counters["engine/experiments_run"])
	}
	var sawLatency, sawComponent bool
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "device/") && strings.HasSuffix(name, "/latency_ns") && h.Count > 0 {
			sawLatency = true
		}
		if strings.HasSuffix(name, "/link_req_ns") && h.Count > 0 {
			sawComponent = true
		}
	}
	if !sawLatency {
		t.Fatal("no device latency histogram collected")
	}
	if !sawComponent {
		t.Fatal("no CXL component histogram collected (native attribution missing)")
	}
	if tel.Trace.Len() == 0 {
		t.Fatal("trace recorded no events")
	}
	if _, err := json.Marshal(tel.Trace); err != nil {
		t.Fatalf("trace does not marshal: %v", err)
	}
	if _, err := json.Marshal(tel.Registry.Export()); err != nil {
		t.Fatalf("registry does not marshal: %v", err)
	}
}

// TestCanceledCellsLeaveNoSpans pins that only a cell that returned a
// result is traced, on the engine trace and on the request trace alike:
// RunAll under a canceled context runs no cell and records no cell span,
// at -j 1 and at -j 2. The engine trace is checked on both paths a cell
// span can take into it: a ctx carrying a request span (whose tracer
// has no mirror, so the Perfetto file stays empty) and a ctx carrying
// none, where the engine roots its own spans and mirrors them into
// Telemetry.Trace.
func TestCanceledCellsLeaveNoSpans(t *testing.T) {
	emr := platform.EMR2S()
	reqs := Cells(testSubset(t, 8)[:3], Local(emr), NUMA(emr))
	for _, workers := range []int{1, 2} {
		r := fastRunner(emr)
		r.Workers = workers
		tel := NewTelemetry()
		tel.Trace = obs.NewTrace()
		r.Obs = tel
		store := tracespan.NewStore()
		ctx, root := tracespan.NewTracer(store).StartRoot(context.Background(), "exec", tracespan.SpanContext{})
		ctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := r.RunAll(ctx, reqs); err == nil {
			t.Fatalf("-j %d: RunAll under a canceled context returned no error", workers)
		}
		root.End()

		for _, ev := range traceEvents(t, tel.Trace) {
			if ev.Cat == "cell" {
				t.Fatalf("-j %d: canceled cell traced: %+v", workers, ev)
			}
		}
		_, spans, _ := store.Get(root.TraceID())
		for _, sp := range spans {
			if sp.Name == "cell" {
				t.Fatalf("-j %d: canceled cell on the request trace: %+v", workers, sp)
			}
		}
		if n := tel.Registry.Export().Counters["runner/cells_run"]; n != 0 {
			t.Fatalf("-j %d: cells_run = %d, want 0", workers, n)
		}

		// No span in ctx, only a Trace: the engine's experiment span
		// roots on the Telemetry's tracer and parents the cells.
		tel = NewTelemetry()
		tel.Trace = obs.NewTrace()
		eng := NewEngine(Options{Instructions: r.Instructions, Warmup: r.Warmup})
		eng.Workers = workers
		eng.Obs = tel
		ctx, cancel = context.WithCancel(context.Background())
		cancel()
		eng.Run(ctx, Experiment{ID: "canceled", Run: func(ec *ExperimentContext) *Report {
			if err := ec.Declare(ec.Runner(emr), reqs); err == nil {
				t.Errorf("-j %d: Declare under a canceled context returned no error", workers)
			}
			return &Report{}
		}})
		experiments := 0
		for _, ev := range traceEvents(t, tel.Trace) {
			if ev.Cat == "cell" {
				t.Fatalf("-j %d, no request span: canceled cell traced: %+v", workers, ev)
			}
			if ev.Ph == "X" && ev.Cat == "experiment" {
				experiments++
			}
		}
		// Without the experiment span in the trace, the cell check above
		// would pass whether or not cells are recorded.
		if experiments != 1 {
			t.Fatalf("-j %d, no request span: %d experiment events, want 1", workers, experiments)
		}
		if n := tel.Registry.Export().Counters["runner/cells_run"]; n != 0 {
			t.Fatalf("-j %d, no request span: cells_run = %d, want 0", workers, n)
		}
	}
}

// traceEvents decodes tr's Chrome trace-event JSON.
func traceEvents(t *testing.T, tr *obs.Trace) []obs.Event {
	t.Helper()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f.TraceEvents
}

// TestTelemetryCacheOutcomes pins the cache-outcome counters: a repeated
// sequential cell is one miss then one hit.
func TestTelemetryCacheOutcomes(t *testing.T) {
	specs := testSubset(t, 8)
	emr := platform.EMR2S()
	r := fastRunner(emr)
	tel := NewTelemetry()
	r.Obs = tel

	req := RunRequest{Spec: specs[0], Config: Local(emr)}
	if _, err := r.RunCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s := tel.Registry.Export()
	if s.Counters["runner/cache_miss"] != 1 || s.Counters["runner/cache_hit"] != 1 {
		t.Fatalf("outcomes = miss %d hit %d wait %d, want 1/1/0",
			s.Counters["runner/cache_miss"], s.Counters["runner/cache_hit"],
			s.Counters["runner/cache_wait"])
	}
}

// TestTelemetryCacheSingleflight pins that concurrent requests for one
// cell compute exactly once and every other requester is a hit or wait.
func TestTelemetryCacheSingleflight(t *testing.T) {
	specs := testSubset(t, 8)
	emr := platform.EMR2S()
	r := fastRunner(emr)
	tel := NewTelemetry()
	r.Obs = tel

	req := RunRequest{Spec: specs[1], Config: CXL(emr, cxl.ProfileA())}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.RunCtx(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := tel.Registry.Export()
	miss, hit, wait := s.Counters["runner/cache_miss"], s.Counters["runner/cache_hit"], s.Counters["runner/cache_wait"]
	if miss != 1 {
		t.Fatalf("cell computed %d times, want 1", miss)
	}
	if hit+wait != n-1 {
		t.Fatalf("hit %d + wait %d != %d", hit, wait, n-1)
	}
}

// TestNilTelemetryIsInert pins the disabled path: a runner without Obs
// works and records nothing anywhere.
func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	tel.countCache(cacheHit)
	tel.cellDone(CellTiming{}, nil)
	if tel.Cells() != nil {
		t.Fatal("nil telemetry returned cells")
	}
	ctx := context.Background()
	if got, sp := tel.startSpan(ctx, "experiment"); got != ctx || sp != nil {
		t.Fatal("nil telemetry opened a span")
	}
}
