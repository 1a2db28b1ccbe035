package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("runner/cells_run").Add(5)
	reg.Histogram("device/EMR2S/CXL-B/latency_ns").Record(250)
	s := New(reg, func() any {
		return map[string]any{"experiments": []string{"fig5"}, "done": 3}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body, resp := get(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"melody_runner_cells_run_total 5",
		`melody_device_latency_ns_count{platform="EMR2S",config="CXL-B"} 1`,
		"# TYPE melody_observatory_serve_metrics_scrapes_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// A second scrape sees the first one's count: the self-registry is
	// live, and lives only here — never in the engine registry.
	body2, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body2, "melody_observatory_serve_metrics_scrapes_total 2") {
		t.Fatalf("scrape counter not incrementing:\n%s", body2)
	}
}

func TestServeSelfCountersStayOutOfEngineRegistry(t *testing.T) {
	_, ts, reg := newTestServer(t)
	get(t, ts.URL+"/metrics")
	get(t, ts.URL+"/progress")
	snap := reg.Snapshot()
	// serve/ self counters, http/ RED middleware instruments and
	// runtime/ gauges all belong to the self-registry; any of them in
	// the engine registry would break manifest byte-identity.
	leaked := func(name string) bool {
		return strings.HasPrefix(name, "serve/") ||
			strings.HasPrefix(name, "http/") ||
			strings.HasPrefix(name, "runtime/") ||
			strings.HasPrefix(name, "jobs/")
	}
	for name := range snap.Counters {
		if leaked(name) {
			t.Fatalf("observatory counter %q leaked into the engine registry", name)
		}
	}
	for name := range snap.Gauges {
		if leaked(name) {
			t.Fatalf("observatory gauge %q leaked into the engine registry", name)
		}
	}
	for name := range snap.Histograms {
		if leaked(name) {
			t.Fatalf("observatory histogram %q leaked into the engine registry", name)
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body, resp := get(t, ts.URL+"/progress")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if got["done"] != float64(3) {
		t.Fatalf("progress payload = %v", got)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body, _ := get(t, ts.URL+"/healthz")
	var got map[string]any
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
}

func TestEventsSSEStream(t *testing.T) {
	s, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	// Wait for the subscription before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for s.Hub().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	s.Hub().Publish(jobs.Event{Type: jobs.EventExperimentStart, Experiment: "fig5", Title: "Latency-bandwidth curves"})
	s.Hub().Publish(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 1, Total: 10})

	r := bufio.NewReader(resp.Body)
	var lines []string
	for len(lines) < 8 {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (got %q)", err, lines)
		}
		lines = append(lines, strings.TrimRight(line, "\n"))
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"event: experiment_start", "event: cell", `"experiment":"fig5"`, "id: 1", "id: 2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, text)
		}
	}
}

// TestSlowEventsClientSeesDrops is the backpressure contract end to
// end: a deliberately slow /events client (connected but not draining)
// loses events, the loss is visible as a drop counter on /metrics, and
// the stream the client finally reads has a seq gap. Where the gap
// falls depends on how much the HTTP writer got into socket buffers
// first, so the test asserts only that there is one; the drop-oldest
// order itself is pinned against an in-memory subscriber by
// TestHubDropOldest, and the publisher's independence from a wedged
// client by TestHubPublishNeverBlocks.
func TestSlowEventsClientSeesDrops(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(reg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.Hub().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// The client is "slow": it reads nothing while the engine publishes
	// far more events than the queue plus the socket can absorb. The
	// HTTP writer goroutine drains some into kernel buffers; everything
	// beyond queue capacity + buffering is dropped oldest-first.
	const published = 200_000
	for i := 0; i < published; i++ {
		s.Hub().Publish(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: i, Total: published,
			Title: strings.Repeat("x", 64)})
	}

	// Drops must be visible on /metrics via the observatory registry.
	dropped := s.SelfRegistry().Counter("serve/events_dropped").Value()
	if dropped == 0 {
		t.Fatalf("slow client produced no drops after %d events", published)
	}
	body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "melody_observatory_serve_events_dropped_total") {
		t.Fatalf("/metrics missing drop counter:\n%s", body)
	}

	// The slow client finally reads the whole stream. The newest event
	// is never dropped, so reading up to it sees every delivered event,
	// and the dropped ones leave a gap somewhere.
	r := bufio.NewReader(resp.Body)
	var prev, delivered uint64
	gap := false
	for prev < published {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read after seq %d: %v", prev, err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq <= prev {
			t.Fatalf("seq %d delivered after %d", ev.Seq, prev)
		}
		gap = gap || ev.Seq > prev+1
		prev = ev.Seq
		delivered++
	}
	if !gap {
		t.Fatalf("stream of %d events has no seq gap despite %d drops", delivered, dropped)
	}
	if delivered+dropped != published {
		t.Fatalf("%d delivered + %d dropped != %d published", delivered, dropped, published)
	}
}

func TestStartAndClose(t *testing.T) {
	s := New(obs.NewRegistry(), nil)
	run, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := get(t, "http://"+run.Addr().String()+"/healthz")
	if !strings.Contains(body, "ok") {
		t.Fatalf("healthz over real listener: %s", body)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + run.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func TestStartBadAddressFailsFast(t *testing.T) {
	s := New(obs.NewRegistry(), nil)
	if _, err := s.Start("definitely-not-an-address:xyz"); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestQueryNumRange: a value below the minimum, or NaN, which parses as
// a float but compares false with every bound, answers 400 rather than
// reaching a filter or the regression gate.
func TestQueryNumRange(t *testing.T) {
	for _, c := range []struct {
		query string
		ok    bool
		want  float64
	}{
		{"", true, 7},
		{"x=0.05", true, 0.05},
		{"x=0", true, 0},
		{"x=-1", false, 7},
		{"x=NaN", false, 7},
		{"x=soon", false, 7},
	} {
		w := httptest.NewRecorder()
		v := 7.0
		ok := queryNum(w, httptest.NewRequest(http.MethodGet, "/?"+c.query, nil), "x", &v, 0, "a non-negative number")
		if ok != c.ok || v != c.want {
			t.Fatalf("%q: ok %v value %v, want %v %v", c.query, ok, v, c.ok, c.want)
		}
		if !ok && (w.Code != http.StatusBadRequest || !strings.HasPrefix(w.Body.String(), "bad x: want ")) {
			t.Fatalf("%q: %d %q, want 400 bad x", c.query, w.Code, w.Body.String())
		}
	}
}

// TestTracesMinDurationBeyondRange requires a min_duration_s past
// time.Duration's range (~9.2e9 s) to list no trace: converted as is,
// it wraps to a negative bound, which the store reads as no filter.
func TestTracesMinDurationBeyondRange(t *testing.T) {
	_, ts, _ := newTestServer(t)
	doGet(t, ts.URL+"/healthz", nil)
	for _, c := range []struct {
		query string
		want  int
	}{
		{"0", 1},
		{"9e9", 0},
		{"1e10", 0},
		{"1e300", 0},
		{"%2BInf", 0},
	} {
		body, resp := get(t, ts.URL+"/traces?min_duration_s="+c.query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("min_duration_s=%s: %d %s", c.query, resp.StatusCode, body)
		}
		var list struct {
			Traces []tracespan.TraceSummary `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatalf("min_duration_s=%s: %v\n%s", c.query, err, body)
		}
		if len(list.Traces) != c.want {
			t.Errorf("min_duration_s=%s listed %d traces, want %d", c.query, len(list.Traces), c.want)
		}
	}
}
