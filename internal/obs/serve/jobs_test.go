package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody/spec"
)

// fakeExec is a controllable executor: it blocks jobs on gate (when
// set) and counts executions.
type fakeExec struct {
	gate  chan struct{} // nil = run immediately
	runs  atomic.Int32
	sleep time.Duration
}

func (f *fakeExec) exec(ctx context.Context, sp spec.RunSpec, notify func(jobs.Event)) (jobs.ExecResult, error) {
	f.runs.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return jobs.ExecResult{ManifestJSON: []byte(`{"interrupted":true}`), Address: "sha256:partial", Interrupted: true}, nil
		}
	}
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	notify(jobs.Event{Type: jobs.EventExperimentStart, Experiment: sp.Experiments[0]})
	notify(jobs.Event{Type: jobs.EventCell, Experiment: sp.Experiments[0], Done: 1, Total: 1})
	notify(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: sp.Experiments[0], WallS: 0.1})
	hash, _ := sp.Hash()
	return jobs.ExecResult{
		ManifestJSON: []byte(`{"tool":"melody","spec_hash":"` + hash + `"}`),
		Address:      "sha256:addr-" + hash[7:15],
	}, nil
}

// newJobServer wires a manager over exec onto a test observatory.
// start=true runs the worker loop (stopped at cleanup).
func newJobServer(t *testing.T, exec jobs.Executor, queueCap int, start bool) (*jobs.Manager, *httptest.Server) {
	t.Helper()
	mgr := jobs.New(exec, queueCap)
	s := New(nil, nil)
	s.AttachJobs(mgr)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if start {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { mgr.Run(ctx); close(done) }()
		t.Cleanup(func() { cancel(); <-done })
	}
	return mgr, ts
}

func postSpec(t *testing.T, url string, sp spec.RunSpec) (*http.Response, jobs.Status) {
	t.Helper()
	raw, err := spec.Encode(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("POST /runs status %d: bad body: %v", resp.StatusCode, err)
		}
	}
	return resp, st
}

func specN(n int) spec.RunSpec {
	return spec.RunSpec{Experiments: []string{fmt.Sprintf("exp-%d", n)}}
}

func waitState(t *testing.T, url, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		body, resp := get(t, url+"/runs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /runs/%s = %d", id, resp.StatusCode)
		}
		var st jobs.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Status{}
}

// TestPostRunsFloodQueueFull floods POST /runs concurrently with
// distinct specs while no worker drains the queue: exactly queueCap
// submissions are admitted, the rest get 429 with Retry-After.
func TestPostRunsFloodQueueFull(t *testing.T) {
	const cap, flood = 4, 32
	fe := &fakeExec{}
	_, ts := newJobServer(t, fe.exec, cap, false) // no worker: queue only fills

	var wg sync.WaitGroup
	var accepted, rejected atomic.Int32
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := spec.Encode(specN(i))
			resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if got := accepted.Load(); got != cap {
		t.Fatalf("accepted %d submissions, want %d", got, cap)
	}
	if got := rejected.Load(); got != flood-cap {
		t.Fatalf("rejected %d submissions, want %d", got, flood-cap)
	}
	if fe.runs.Load() != 0 {
		t.Fatalf("executor ran %d times with no worker", fe.runs.Load())
	}
}

// TestDuplicateSpecCacheHit proves the content-addressed store: the
// second POST of an identical spec answers 200 with CacheHit, serves
// the stored manifest bytes, and does not re-execute.
func TestDuplicateSpecCacheHit(t *testing.T) {
	fe := &fakeExec{}
	_, ts := newJobServer(t, fe.exec, 4, true)

	resp, st := postSpec(t, ts.URL, specN(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts.URL, st.ID, jobs.StateDone)

	man1, mresp := get(t, ts.URL+"/runs/"+st.ID+"/manifest")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("manifest = %d", mresp.StatusCode)
	}
	if got := mresp.Header.Get("Melody-Manifest-Address"); got != done.Address {
		t.Fatalf("manifest address header %q != status address %q", got, done.Address)
	}

	resp2, st2 := postSpec(t, ts.URL, specN(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate POST = %d, want 200", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != jobs.StateDone {
		t.Fatalf("duplicate status = %+v, want done cache hit", st2)
	}
	if st2.ID == st.ID {
		t.Fatal("cache hit reused the original job id")
	}
	man2, _ := get(t, ts.URL+"/runs/"+st2.ID+"/manifest")
	if man1 != man2 {
		t.Fatalf("cache hit served different bytes:\n%s\nvs\n%s", man1, man2)
	}
	if fe.runs.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1", fe.runs.Load())
	}
}

// TestJobEventsSeqGapUnderSlowClient pins drop visibility: a per-job
// subscriber with a tiny queue that never drains while a burst of
// events is published sees its first delivered event start past seq 1
// — a detectable gap, not silent loss.
func TestJobEventsSeqGapUnderSlowClient(t *testing.T) {
	mgr := jobs.New((&fakeExec{}).exec, 4)
	s := New(nil, nil)
	s.AttachJobs(mgr)

	hub := s.jobs.hub("run-000001")
	hub.queueCap = 2
	sub := hub.Subscribe()
	defer hub.Unsubscribe(sub)

	const burst = 10
	for i := 0; i < burst; i++ {
		s.jobs.onEvent(jobs.Event{JobID: "run-000001", Type: jobs.EventCell, Done: i + 1, Total: burst})
	}
	evs, ok := sub.Next(context.Background())
	if !ok {
		t.Fatal("subscriber closed")
	}
	if len(evs) != 2 {
		t.Fatalf("slow client holds %d events, want its queue cap 2", len(evs))
	}
	if evs[0].Seq != burst-1 || evs[1].Seq != burst {
		t.Fatalf("surviving seqs = %d,%d; want the newest two (%d,%d)",
			evs[0].Seq, evs[1].Seq, burst-1, burst)
	}
}

// TestJobEventsStream drives the SSE endpoint end to end: subscribe
// while the job is in flight, then watch it finish. The first frame is
// the status snapshot; job_finished closes the stream.
func TestJobEventsStream(t *testing.T) {
	fe := &fakeExec{gate: make(chan struct{})}
	_, ts := newJobServer(t, fe.exec, 4, true)

	_, st := postSpec(t, ts.URL, specN(1))

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var events []string
	var sawSnapshot bool
	readFrame := func() (string, bool) {
		ev := ""
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				ev = strings.TrimPrefix(line, "event: ")
			}
			if line == "" && ev != "" {
				return ev, true
			}
		}
		return "", false
	}

	// First frame: the snapshot, taken under the live subscription.
	ev, ok := readFrame()
	if !ok || ev != EventJobStatus {
		t.Fatalf("first frame = %q ok=%v, want status snapshot", ev, ok)
	}
	sawSnapshot = true
	close(fe.gate) // let the job run

	for {
		ev, ok := readFrame()
		if !ok {
			break
		}
		events = append(events, ev)
		if ev == jobs.EventFinished {
			break
		}
	}
	if !sawSnapshot {
		t.Fatal("no snapshot frame")
	}
	joined := strings.Join(events, ",")
	for _, want := range []string{jobs.EventExperimentStart, jobs.EventCell, jobs.EventExperimentEnd, jobs.EventFinished} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stream missing %s (saw %s)", want, joined)
		}
	}
	// A late subscriber to the finished job gets the terminal snapshot
	// and the stream closes immediately.
	late, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(late.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "event: "+EventJobStatus) {
		t.Fatalf("late subscriber missing terminal snapshot:\n%s", buf.String())
	}
}

// TestJobHubsDroppedAtFinish pins the per-job hub lifetime: a hub lives
// from a job's first event to its job_finished, and a store answer,
// born done, never gets one. After fresh jobs and cache-hit
// resubmissions, each with its stream read to the end, no hub is left.
func TestJobHubsDroppedAtFinish(t *testing.T) {
	const fresh, hits = 3, 5
	fe := &fakeExec{gate: make(chan struct{})}
	mgr := jobs.New(fe.exec, fresh)
	s := New(nil, nil)
	s.AttachJobs(mgr)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { mgr.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })

	// Every fresh stream opens while its job is held at the gate, so each
	// one ends at job_finished rather than at a terminal snapshot.
	streams := make([]*http.Response, fresh)
	for i := range streams {
		_, st := postSpec(t, ts.URL, specN(i))
		resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = resp
	}
	close(fe.gate)
	for i, resp := range streams {
		if body := jobStream(t, resp); !strings.Contains(body, "event: "+jobs.EventFinished) {
			t.Fatalf("fresh job %d stream did not end at job_finished:\n%s", i, body)
		}
	}
	for i := 0; i < hits; i++ {
		_, st := postSpec(t, ts.URL, specN(i%fresh))
		if !st.CacheHit {
			t.Fatalf("resubmission %d not a cache hit: %+v", i, st)
		}
		if body, _ := get(t, ts.URL+"/runs/"+st.ID+"/events"); !strings.Contains(body, `"cache_hit":true`) {
			t.Fatalf("cache-hit stream is not its terminal snapshot:\n%s", body)
		}
	}
	s.jobs.mu.Lock()
	n := len(s.jobs.hubs)
	s.jobs.mu.Unlock()
	if n != 0 {
		t.Fatalf("API holds %d hubs after %d finished jobs and %d cache hits, want 0", n, fresh, hits)
	}
}

// TestManifestEndpointStates covers the non-200 manifest answers.
func TestManifestEndpointStates(t *testing.T) {
	fe := &fakeExec{gate: make(chan struct{})}
	_, ts := newJobServer(t, fe.exec, 4, true)

	_, resp := get(t, ts.URL+"/runs/run-999999/manifest")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job manifest = %d, want 404", resp.StatusCode)
	}

	_, st := postSpec(t, ts.URL, specN(1))
	waitState(t, ts.URL, st.ID, jobs.StateRunning)
	body, resp := get(t, ts.URL+"/runs/"+st.ID+"/manifest")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("running job manifest = %d, want 202", resp.StatusCode)
	}
	var running jobs.Status
	if err := json.Unmarshal([]byte(body), &running); err != nil || running.State != jobs.StateRunning {
		t.Fatalf("202 body = %q (%v)", body, err)
	}
	close(fe.gate)
	waitState(t, ts.URL, st.ID, jobs.StateDone)
}

// TestReadyzDrainRejectsSubmissions: /readyz flips to 503 when the
// manager drains, and POST /runs answers 503 too.
func TestReadyzDrainRejectsSubmissions(t *testing.T) {
	fe := &fakeExec{}
	mgr, ts := newJobServer(t, fe.exec, 4, false)

	body, resp := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("/readyz before drain = %d %q", resp.StatusCode, body)
	}

	mgr.StartDrain()
	body, resp = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("/readyz during drain = %d %q", resp.StatusCode, body)
	}

	raw, _ := spec.Encode(specN(1))
	post, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", post.StatusCode)
	}
}

// TestSubmitRejectsBadSpecs: undecodable bodies and unknown versions
// are 400 with a useful message.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	fe := &fakeExec{}
	_, ts := newJobServer(t, fe.exec, 4, false)

	for _, tc := range []struct{ name, body, wantMsg string }{
		{"invalid json", "{", "invalid JSON"},
		{"unknown version", `{"version": 99, "experiments": ["x"]}`, "version " + strconv.Itoa(99)},
		{"unknown field", `{"experiments": ["x"], "bogus": 1}`, "bogus"},
		{"no experiments", `{"experiments": []}`, "no experiments"},
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), tc.wantMsg) {
			t.Fatalf("%s: body %q missing %q", tc.name, buf.String(), tc.wantMsg)
		}
	}
}

// TestRunsListing: GET /runs reflects the queue.
func TestRunsListing(t *testing.T) {
	fe := &fakeExec{}
	_, ts := newJobServer(t, fe.exec, 8, false)
	for i := 0; i < 3; i++ {
		postSpec(t, ts.URL, specN(i))
	}
	body, resp := get(t, ts.URL+"/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs = %d", resp.StatusCode)
	}
	var listing struct {
		Jobs       []jobs.Status `json:"jobs"`
		QueueDepth int           `json:"queue_depth"`
		QueueCap   int           `json:"queue_cap"`
		Accepting  bool          `json:"accepting"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 3 || listing.QueueDepth != 3 || listing.QueueCap != 8 || !listing.Accepting {
		t.Fatalf("listing = %+v", listing)
	}
	for i, j := range listing.Jobs {
		if j.QueuePos != i+1 {
			t.Fatalf("job %d queue_position = %d, want %d", i, j.QueuePos, i+1)
		}
	}
}
