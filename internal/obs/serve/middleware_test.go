package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// syncBuffer is a goroutine-safe log sink: handlers write from the
// server's goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitContains polls until the buffer contains want (log lines land
// via a deferred func that may complete after the HTTP response).
func (b *syncBuffer) waitContains(t *testing.T, want string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := b.String()
		if strings.Contains(s, want) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q:\n%s", want, s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMiddlewareREDMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t)
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/nope") // 404 via the "/" fallback route
	body, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`melody_observatory_http_requests_total{route="/healthz",class="2xx"} 2`,
		`melody_observatory_http_requests_total{route="/",class="4xx"} 1`,
		`melody_observatory_http_request_seconds_count{route="/healthz"} 2`,
		"# TYPE melody_observatory_http_in_flight gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The route label is the mux pattern, not the concrete path, so
	// request-counter cardinality is bounded by the route table.
	if strings.Contains(body, `route="/nope"`) {
		t.Fatalf("concrete path leaked into route label:\n%s", body)
	}
}

func TestRuntimeFamiliesOnMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"melody_observatory_runtime_goroutines ",
		"melody_observatory_runtime_heap_alloc_bytes ",
		"melody_observatory_runtime_heap_sys_bytes ",
		"melody_observatory_runtime_gc_runs ",
		"melody_observatory_runtime_uptime_seconds ",
		"# TYPE melody_observatory_runtime_gc_pause_ns histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing runtime family %q:\n%s", want, body)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	logBuf := &syncBuffer{}
	logger, err := svclog.New(logBuf, svclog.Options{Format: "json", Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(obs.NewRegistry(), func() any { panic("progress exploded") })
	s.SetLogger(logger)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, resp := get(t, ts.URL+"/progress")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500 (%s)", resp.StatusCode, body)
	}
	if got := s.PanicCount("/progress"); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The observatory survives: other routes still serve.
	if body, resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d %s", resp.StatusCode, body)
	}

	// The panic is logged with stack and correlation id, as valid JSON.
	text := logBuf.waitContains(t, "handler panic")
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		if rec["msg"] != "handler panic" {
			continue
		}
		if rec["panic"] != "progress exploded" {
			t.Fatalf("panic log = %v", rec)
		}
		if rec[svclog.KeyReqID] == "" || rec[svclog.KeyReqID] == nil {
			t.Fatalf("panic log missing req_id: %v", rec)
		}
		if !strings.Contains(line, "middleware.go") && !strings.Contains(rec["stack"].(string), "panic") {
			t.Fatalf("panic log missing stack: %v", rec)
		}
		return
	}
	t.Fatalf("no handler-panic line found:\n%s", text)
}

func TestRequestIDRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t)

	// A caller-supplied id is honored and echoed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chose-this" {
		t.Fatalf("X-Request-Id echo = %q", got)
	}

	// Without one, the middleware generates a 16-hex-char id.
	_, resp2 := get(t, ts.URL+"/healthz")
	gen := resp2.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Fatalf("generated request id = %q", gen)
	}
}

func TestAccessLogCarriesRequestID(t *testing.T) {
	logBuf := &syncBuffer{}
	logger, err := svclog.New(logBuf, svclog.Options{Format: "json", Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(obs.NewRegistry(), nil)
	s.SetLogger(logger)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "corr-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	text := logBuf.waitContains(t, "http request")
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line not JSON: %v\n%s", err, line)
		}
		if rec["msg"] != "http request" {
			continue
		}
		if rec[svclog.KeyReqID] != "corr-123" || rec["route"] != "/healthz" || rec["status"] != float64(200) {
			t.Fatalf("access log = %v", rec)
		}
		return
	}
	t.Fatalf("no access-log line found:\n%s", text)
}

// TestMetricsNilRegistry covers the nil-engine-registry guard: the
// `melody serve` front door has no process-wide engine registry, and
// /metrics must render the self section rather than panic.
func TestMetricsNilRegistry(t *testing.T) {
	s := New(nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, resp := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics with nil registry: %d", resp.StatusCode)
	}
	if !strings.Contains(body, "melody_observatory_serve_metrics_scrapes_total 1") {
		t.Fatalf("self section missing with nil engine registry:\n%s", body)
	}
	// No engine families at all: every line is melody_observatory_*.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.HasPrefix(line, "melody_observatory_") {
			t.Fatalf("unexpected engine family with nil registry: %q", line)
		}
	}
}

// TestEventEncodeFailureCounted swaps the marshal seam to fail, then
// drives one event through /events and asserts the loss is counted in
// serve/event_encode_failures instead of vanishing.
func TestEventEncodeFailureCounted(t *testing.T) {
	old := marshalEvent
	marshalEvent = func(any) ([]byte, error) { return nil, errors.New("boom") }
	defer func() { marshalEvent = old }()

	s, ts, _ := newTestServer(t)
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
	s.Hub().Publish(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 1, Total: 2})

	deadline = time.Now().Add(2 * time.Second)
	for s.SelfRegistry().Counter("serve/event_encode_failures").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("encode failure never counted")
		}
		time.Sleep(time.Millisecond)
	}
	// The stream survives the failure: a subsequent good event (restore
	// the seam) still arrives.
	marshalEvent = old
	s.Hub().Publish(jobs.Event{Type: jobs.EventCell, Experiment: "fig5", Done: 2, Total: 2})
	r := bufio.NewReader(resp.Body)
	found := make(chan struct{})
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if strings.Contains(line, `"done":2`) {
				close(found)
				return
			}
		}
	}()
	select {
	case <-found:
	case <-time.After(2 * time.Second):
		t.Fatal("stream did not survive the encode failure")
	}
}

// TestSSEFlusherSurvivesMiddleware pins the statusWriter contract: the
// events handlers type-assert http.Flusher, which must hold through
// the wrapper or every SSE route would answer 500.
func TestSSEFlusherSurvivesMiddleware(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events through middleware: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{
		200: "2xx", 202: "2xx", 301: "3xx", 404: "4xx", 429: "4xx",
		500: "5xx", 503: "5xx", 99: "other", 600: "other",
	} {
		if got := statusClass(code); got != want {
			t.Fatalf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}
