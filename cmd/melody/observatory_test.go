package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// lockedBuffer collects log output safely across the server goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runObserved executes one cheap experiment with telemetry and an
// optional observatory attached, returning the stripped manifest bytes.
// The observed pass runs with debug-level JSON logging and the RED
// middleware active — the isolation contract covers them too.
func runObserved(t *testing.T, withServe bool) []byte {
	t.Helper()
	tel := melody.NewTelemetry()
	eng := melody.NewEngine(melody.Options{
		MaxWorkloads: 6, Instructions: 150_000, Warmup: 40_000, Seed: 1,
		SampleEveryCycles: 50_000,
	})
	eng.Workers = 2
	eng.Obs = tel

	var obsv *observatory
	var logBuf *lockedBuffer
	if withServe {
		logBuf = &lockedBuffer{}
		logger, err := svclog.New(logBuf, svclog.Options{Format: "json", Level: "debug"})
		if err != nil {
			t.Fatal(err)
		}
		obsv, err = startObservatory("127.0.0.1:0", tel, []string{"fig8f"}, logger, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer obsv.close()
		eng.Event = obsv.publish
	}

	obsv.publish(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig8f"})
	if _, ok := eng.RunByID(context.Background(), "fig8f"); !ok {
		t.Fatal("fig8f not registered")
	}
	obsv.publish(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: "fig8f", WallS: 1})
	obsv.publish(jobs.Event{Type: jobs.EventRunEnd})

	if withServe {
		// Scrape every endpoint mid-lifetime to prove reads are inert.
		base := "http://" + obsv.run.Addr().String()
		for _, ep := range []string{"/metrics", "/progress", "/healthz"} {
			resp, err := http.Get(base + ep)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", ep, resp.StatusCode)
			}
		}
		// The scrapes really went through the logging middleware: the
		// access log saw them (so byte-identity below is a real test of
		// logging + middleware, not of an idle code path).
		if !strings.Contains(logBuf.String(), "http request") {
			t.Fatalf("access log empty after scrapes:\n%s", logBuf.String())
		}
	}

	m := melody.BuildManifest(1, 2, 6, []melody.ExperimentTiming{{ID: "fig8f", WallS: 2}}, tel)
	m.StripHostTime()
	raw, err := melody.EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeDoesNotPerturbManifest is the -serve isolation contract:
// under the StripHostTime projection (host wall times are the only
// nondeterministic manifest fields), a run with the observatory
// attached and scraped produces byte-identical -metrics output to a
// run without it.
func TestServeDoesNotPerturbManifest(t *testing.T) {
	without := runObserved(t, false)
	with := runObserved(t, true)
	if !bytes.Equal(without, with) {
		i := 0
		for i < len(without) && i < len(with) && without[i] == with[i] {
			i++
		}
		lo := max(0, i-200)
		t.Fatalf("manifest differs with -serve attached at byte %d:\n--- without ---\n…%s\n--- with ---\n…%s",
			i, without[lo:min(len(without), i+200)], with[lo:min(len(with), i+200)])
	}
	// And nothing from the observatory leaked into the registry dump.
	if bytes.Contains(with, []byte(`"serve/`)) {
		t.Fatal("observatory self-metrics leaked into the manifest")
	}
}

// TestObservatoryLiveEndpoints drives a run with the observatory up and
// checks the live payloads: progress reflects the declared plan, events
// stream boundary markers, /metrics carries both namespaces.
func TestObservatoryLiveEndpoints(t *testing.T) {
	tel := melody.NewTelemetry()
	obsv, err := startObservatory("127.0.0.1:0", tel, []string{"fig8f"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer obsv.close()
	base := "http://" + obsv.run.Addr().String()

	// Subscribe to /events before generating any.
	evReq, _ := http.NewRequest("GET", base+"/events", nil)
	evCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evResp, err := http.DefaultClient.Do(evReq.WithContext(evCtx))
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()

	eng := melody.NewEngine(melody.Options{
		MaxWorkloads: 4, Instructions: 120_000, Warmup: 30_000, Seed: 1,
	})
	eng.Workers = 2
	eng.Obs = tel
	eng.Event = obsv.publish

	obsv.publish(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig8f", Title: "Sensitivity"})
	if _, ok := eng.RunByID(context.Background(), "fig8f"); !ok {
		t.Fatal("fig8f not registered")
	}
	obsv.publish(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: "fig8f", WallS: 0.5})
	obsv.publish(jobs.Event{Type: jobs.EventRunEnd})

	var prog melody.ProgressSnapshot
	resp, err := http.Get(base + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !prog.Done || len(prog.Experiments) != 1 || prog.Experiments[0].State != "done" {
		t.Fatalf("progress = %+v", prog)
	}
	if prog.CellsRun == 0 || prog.Experiments[0].Done != prog.Experiments[0].Total {
		t.Fatalf("progress cells = %+v", prog)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{"melody_runner_cells_run_total", "melody_observatory_serve_metrics_scrapes_total", "melody_observatory_serve_events_published_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%.1500s", want, body)
		}
	}

	// The SSE stream carried the lifecycle: experiment_start, at least
	// one cell, experiment_end, run_end.
	seen := map[string]bool{}
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		seen[ev.Type] = true
		if ev.Type == jobs.EventRunEnd {
			break
		}
	}
	for _, want := range []string{jobs.EventExperimentStart, jobs.EventCell, jobs.EventExperimentEnd, jobs.EventRunEnd} {
		if !seen[want] {
			t.Fatalf("SSE stream missing %s events (saw %v)", want, seen)
		}
	}
}

// TestObservatoryCloseDeliversRunEnd pins the end of a -serve run: a
// client of /events receives every event through run_end even when the
// run closes the observatory the moment it publishes it.
func TestObservatoryCloseDeliversRunEnd(t *testing.T) {
	obsv, err := startObservatory("127.0.0.1:0", melody.NewTelemetry(), []string{"fig8f"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + obsv.run.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	obsv.publish(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig8f"})
	obsv.publish(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: "fig8f", WallS: 1})
	obsv.publish(jobs.Event{Type: jobs.EventRunEnd})
	obsv.close()
	body, _ := io.ReadAll(resp.Body)
	frames := strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n")
	if last := frames[len(frames)-1]; !strings.HasPrefix(last, "id: 3\nevent: run_end\n") {
		t.Fatalf("stream did not end at run_end:\n%s", body)
	}
}

// TestRunCmdInterruptFlushesManifest cancels a run via SIGINT mid-way
// and checks that the manifest still lands, marked interrupted.
func TestRunCmdInterruptFlushesManifest(t *testing.T) {
	// Exercise the wiring directly (signal.NotifyContext is process-
	// global; raising a real SIGINT would kill the test runner's other
	// goroutines' expectations). Cancelled context + flush is the same
	// code path runCmd takes.
	tel := melody.NewTelemetry()
	eng := melody.NewEngine(melody.Options{
		MaxWorkloads: 4, Instructions: 120_000, Warmup: 30_000, Seed: 1,
	})
	eng.Workers = 2
	eng.Obs = tel

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt before the experiment starts
	if _, ok := eng.RunByID(ctx, "fig8f"); !ok {
		t.Fatal("fig8f not registered")
	}

	m := melody.BuildManifest(1, 2, 4, nil, tel)
	m.Interrupted = true
	raw, err := melody.EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"interrupted": true`)) {
		t.Fatalf("interrupted manifest missing flag:\n%.500s", raw)
	}
	// The cancelled run computed no cells but the manifest is complete.
	var parsed struct {
		Cells []any `json:"cells"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Cells == nil {
		t.Fatal("interrupted manifest has null cells")
	}
}

// TestObservatoryWithProfiler pins the -prof-interval wiring: an
// observatory started with a profiling cadence serves /profiles with
// captures in it, records profiler instruments under the observatory
// namespace only, and close() stops the capture loop cleanly.
func TestObservatoryWithProfiler(t *testing.T) {
	tel := melody.NewTelemetry()
	obsv, err := startObservatory("127.0.0.1:0", tel, []string{"fig8f"}, nil, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer obsv.close()
	base := "http://" + obsv.run.Addr().String()

	// The profiler's initial round runs at startup; poll briefly for the
	// instant captures (heap/goroutine land before the CPU window ends).
	var listing struct {
		Profiles []json.RawMessage `json:"profiles"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/profiles")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /profiles = %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatalf("decode /profiles: %v\n%s", err, body)
		}
		if len(listing.Profiles) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(listing.Profiles) == 0 {
		t.Fatal("no captures after startup round")
	}

	// Profiler instruments live in the observatory namespace, never the
	// engine registry (where they would leak into the manifest).
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "melody_observatory_hostprof_captures_total") {
		t.Fatal("/metrics missing hostprof instruments")
	}
	snap := tel.Registry.Snapshot()
	for _, m := range []map[string]struct{}{keys(snap.Counters), keys(snap.Gauges), keys(snap.Histograms)} {
		for name := range m {
			if strings.HasPrefix(name, "hostprof/") {
				t.Fatalf("profiler instrument %q leaked into the engine registry", name)
			}
		}
	}
}

// keys projects a map's key set (the engine-registry snapshot has three
// differently-typed instrument maps).
func keys[V any](m map[string]V) map[string]struct{} {
	out := make(map[string]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}
