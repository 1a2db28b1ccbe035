package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs/hostprof"
)

// profiledServer builds an observatory with an attached profiler whose
// store already holds one capture round.
func profiledServer(t *testing.T, debugPprof bool) (*Server, *hostprof.Profiler, *httptest.Server) {
	t.Helper()
	s := New(nil, nil)
	s.DebugPprof = debugPprof
	p := hostprof.New(hostprof.Config{
		Registry:   s.SelfRegistry(),
		JobsDuring: func(from, to time.Time) []string { return []string{"run-000009"} },
	})
	s.AttachProfiler(p)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, p, ts
}

// captureRound drives one synchronous profiler round (no Run loop —
// handler tests want deterministic store contents).
func captureRound(p *hostprof.Profiler) {
	// Run always performs its initial round before selecting, so a
	// cancel-after-launch yields exactly one complete synchronous round.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()
	cancel()
	<-done
}

func TestProfilesDisabled(t *testing.T) {
	s := New(nil, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/profiles", "/profiles/abc123"} {
		body, resp := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s without profiler = %d", path, resp.StatusCode)
		}
		if !strings.Contains(body, "-prof-interval") {
			t.Fatalf("unhelpful disabled message: %q", body)
		}
	}
	// /debug/pprof stays unmounted unless opted in.
	_, resp := get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ mounted without opt-in: %d", resp.StatusCode)
	}
}

func TestProfilesListAndFilters(t *testing.T) {
	_, p, ts := profiledServer(t, false)
	captureRound(p)

	var listing struct {
		Profiles []hostprof.Capture  `json:"profiles"`
		Stats    hostprof.StoreStats `json:"stats"`
		Interval float64             `json:"interval_s"`
	}
	body, resp := get(t, ts.URL+"/profiles")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /profiles = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("decode listing: %v\n%s", err, body)
	}
	if len(listing.Profiles) < 5 {
		t.Fatalf("listing has %d captures, want one per type", len(listing.Profiles))
	}
	if listing.Stats.Stored != len(listing.Profiles) {
		t.Fatalf("stats.Stored = %d vs %d listed", listing.Stats.Stored, len(listing.Profiles))
	}
	if listing.Interval <= 0 {
		t.Fatal("interval_s missing")
	}
	for _, c := range listing.Profiles {
		if len(c.Jobs) != 1 || c.Jobs[0] != "run-000009" {
			t.Fatalf("capture %s missing job stamp: %+v", c.ID, c.Jobs)
		}
	}

	body, _ = get(t, ts.URL+"/profiles?type=heap&limit=1")
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Profiles) != 1 || listing.Profiles[0].Type != hostprof.TypeHeap {
		t.Fatalf("filtered listing = %+v", listing.Profiles)
	}

	_, resp = get(t, ts.URL+"/profiles?limit=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", resp.StatusCode)
	}

	// The job_id filter finds the same captures.
	body, _ = get(t, ts.URL+"/profiles?job_id=run-000009")
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Profiles) < 5 {
		t.Fatalf("job_id filter = %d captures", len(listing.Profiles))
	}
}

func TestProfileDownloadParses(t *testing.T) {
	_, p, ts := profiledServer(t, false)
	captureRound(p)

	heap := p.Store().List(hostprof.Filter{Type: hostprof.TypeHeap})
	body, resp := get(t, ts.URL+"/profiles/"+heap[0].ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, ".pb.gz") {
		t.Fatalf("content disposition = %q", cd)
	}
	parsed, err := hostprof.Parse([]byte(body))
	if err != nil {
		t.Fatalf("downloaded profile does not parse: %v", err)
	}
	if parsed.TypeIndex("inuse_space") < 0 {
		t.Fatalf("downloaded heap profile sample types = %+v", parsed.SampleTypes)
	}

	_, resp = get(t, ts.URL+"/profiles/ffffffffffffffff")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

func TestProfileHeapDelta(t *testing.T) {
	_, p, ts := profiledServer(t, false)
	captureRound(p)
	// Grow the heap so a second round captures different heap bytes.
	ballast := bytes.Repeat([]byte("x"), 4<<20)
	captureRound(p)
	_ = ballast[0]

	heaps := p.Store().List(hostprof.Filter{Type: hostprof.TypeHeap})
	if len(heaps) < 2 {
		t.Skipf("heap snapshots deduped (%d unique) — nothing to diff", len(heaps))
	}
	// List is newest-first: from the older, to the newer.
	from, to := heaps[1].ID, heaps[0].ID

	body, resp := get(t, ts.URL+"/profiles/heapdelta?from="+from+"&to="+to)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heapdelta = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		From  hostprof.Capture   `json:"from"`
		To    hostprof.Capture   `json:"to"`
		Delta hostprof.HeapDelta `json:"delta"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode delta: %v", err)
	}
	if out.Delta.SortedBy != "inuse_space" {
		t.Fatalf("delta sorted by %q", out.Delta.SortedBy)
	}
	// Decoding into the same Go type would hide a key rename; the raw
	// body must name each sample type's fields "type" and "unit".
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(body)); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`"sample_types":\[\{"type":"\w+","unit":"\w+"\}`).Match(compact.Bytes()) {
		t.Fatalf("heapdelta body lacks sample_types type/unit keys: %.300s", compact.String())
	}
	if out.From.ID != from || out.To.ID != to {
		t.Fatal("delta payload misidentifies its endpoints")
	}

	// Error paths: missing params, unknown ids, non-heap types.
	for _, q := range []string{
		"",
		"?from=" + from,
		"?from=ffffffffffffffff&to=" + to,
		"?from=" + from + "&to=" + to + "&rows=0",
	} {
		body, resp := get(t, ts.URL+"/profiles/heapdelta"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("heapdelta%s = %d (%s), want 400", q, resp.StatusCode, body)
		}
	}
	if cpus := p.Store().List(hostprof.Filter{Type: hostprof.TypeCPU}); len(cpus) > 0 {
		_, resp := get(t, ts.URL+"/profiles/heapdelta?from="+cpus[0].ID+"&to="+to)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cpu capture accepted as heap delta endpoint: %d", resp.StatusCode)
		}
	}
}

func TestDebugPprofOptIn(t *testing.T) {
	_, _, ts := profiledServer(t, true)
	body, resp := get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with opt-in = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index missing profile links")
	}
	// The handlers run behind the RED middleware: the scrape shows up
	// under the family's single route label.
	mbody, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(mbody, `route="/debug/pprof/"`) {
		t.Fatal("debug pprof requests invisible to RED metrics")
	}
}

func TestStartDebugPprof(t *testing.T) {
	run, err := StartDebugPprof("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	body, resp := get(t, "http://"+run.Addr().String()+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "heap") {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
	// Fail fast on an unusable address — the flag-validation contract.
	if _, err := StartDebugPprof("256.0.0.1:99999", nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestProfilerSelfMetricsOnScrape pins the hostprof self-metric
// families onto /metrics under the observatory namespace.
func TestProfilerSelfMetricsOnScrape(t *testing.T) {
	_, p, ts := profiledServer(t, false)
	captureRound(p)
	body, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`melody_observatory_hostprof_captures_total{type="heap"}`,
		"melody_observatory_hostprof_store_captures",
		"melody_observatory_hostprof_round_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestProfilesListJobInsideWindow pins capture stamping for a job that
// starts and finishes inside one capture window: it runs 10 ms → 20 ms
// into a round's 500 ms CPU window, so that window's capture must be
// listed under /profiles?job_id, though no job was running at either
// end of it. Should a stalled host start the job only after its
// window closed, the next round is tried, up to three; the listing
// check itself is made for every job that started inside a window.
func TestProfilesListJobInsideWindow(t *testing.T) {
	started := make(chan time.Time, 3)
	exec := func(ctx context.Context, sp spec.RunSpec, notify func(jobs.Event)) (jobs.ExecResult, error) {
		started <- time.Now()
		time.Sleep(10 * time.Millisecond)
		return (&fakeExec{}).exec(ctx, sp, notify)
	}
	mgr := jobs.New(exec, 4)
	s := New(nil, nil)
	s.AttachJobs(mgr)
	// A 1 s interval gives each round a 500 ms CPU window.
	p := hostprof.New(hostprof.Config{Interval: time.Second, JobsDuring: mgr.JobsDuring})
	s.AttachProfiler(p)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	mgrDone := make(chan struct{})
	go func() { mgr.Run(ctx); close(mgrDone) }()
	defer func() { cancel(); <-mgrDone }()
	pctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(pctx); close(done) }()
	defer func() { stop(); <-done }()

	// waitFor polls until the store holds more than n routine captures
	// of typ (newest first) whose last one satisfies ok.
	waitFor := func(typ string, n int, ok func(hostprof.Capture) bool) []hostprof.Capture {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			list := p.Store().List(hostprof.Filter{Type: typ, Reason: hostprof.ReasonInterval})
			if len(list) > n && ok(list[0]) {
				return list
			}
		}
		t.Fatalf("no new %s capture within 5s", typ)
		return nil
	}
	anyCapture := func(hostprof.Capture) bool { return true }
	for attempt := 1; attempt <= 3; attempt++ {
		// A round opens its CPU window right after storing its goroutine
		// snapshot; submit 10 ms into the window of the next round.
		seen := len(p.Store().List(hostprof.Filter{Type: hostprof.TypeGoroutine, Reason: hostprof.ReasonInterval}))
		waitFor(hostprof.TypeGoroutine, seen, anyCapture)
		time.Sleep(10 * time.Millisecond)
		_, st := postSpec(t, ts.URL, specN(attempt))
		jobStart := <-started
		waitState(t, ts.URL, st.ID, jobs.StateDone)
		var cpu *hostprof.Capture
		for _, c := range waitFor(hostprof.TypeCPU, 0, func(c hostprof.Capture) bool { return !c.End.Before(jobStart) }) {
			if !jobStart.Before(c.Start) && !jobStart.After(c.End) {
				cpu = &c
				break
			}
		}
		if cpu == nil {
			t.Logf("attempt %d: the job started at %v, outside every CPU window", attempt, jobStart)
			continue
		}

		var listing struct {
			Profiles []hostprof.Capture `json:"profiles"`
		}
		body, resp := get(t, ts.URL+"/profiles?type=cpu&job_id="+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /profiles?job_id = %d", resp.StatusCode)
		}
		if err := json.Unmarshal([]byte(body), &listing); err != nil {
			t.Fatal(err)
		}
		for _, c := range listing.Profiles {
			if c.ID == cpu.ID {
				return
			}
		}
		t.Fatalf("/profiles?job_id=%s lists %d CPU captures, none the window the job started inside (%s)",
			st.ID, len(listing.Profiles), cpu.ID)
	}
	t.Fatal("no job started inside a CPU window in 3 rounds")
}
