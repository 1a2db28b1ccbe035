package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs/ledger"
)

// goldenExec is latencyExec preceded by one experiment's lifecycle
// events, so a job's stream carries every experiment-level type.
func goldenExec(ctx context.Context, sp spec.RunSpec, notify func(jobs.Event)) (jobs.ExecResult, error) {
	id := sp.Experiments[0]
	notify(jobs.Event{Type: jobs.EventExperimentStart, Experiment: id, Title: "Sensitivity"})
	notify(jobs.Event{Type: jobs.EventCell, Experiment: id, Done: 1, Total: 2})
	notify(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: id, WallS: 0.25})
	return latencyExec(ctx, sp, notify)
}

// publishJSON decodes each payload into the hub's event type and
// publishes it: the run-level lifecycle events enter as the JSON the
// CLI observatory publishes, and their frames pin its encoding.
func publishJSON[E any](t *testing.T, publish func(E), payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		var ev E
		if err := json.Unmarshal([]byte(p), &ev); err != nil {
			t.Fatal(err)
		}
		publish(ev)
	}
}

// readUntil reads SSE bytes up to and including the first frame whose
// event type is last.
func readUntil(t *testing.T, r *bufio.Reader, last string) string {
	t.Helper()
	var b strings.Builder
	done := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before %s:\n%s", last, b.String())
		}
		b.WriteString(line)
		if line == "event: "+last+"\n" {
			done = true
		}
		if done && line == "\n" {
			return b.String()
		}
	}
}

// jobStream reads one job's /runs/{id}/events stream to its end.
func jobStream(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func postTraced(t *testing.T, url string, sp spec.RunSpec) jobs.Status {
	t.Helper()
	raw, err := spec.Encode(sp)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/runs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", tpHeader)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("POST /runs = %d: %v", resp.StatusCode, err)
	}
	return st
}

// TestSSEGoldenFrames pins the exact id:/event:/data: bytes of every
// event type on both SSE streams. The per-job stream of a fresh job
// carries its queued status snapshot, job_started, the three
// experiment types, a regression against a pinned baseline and
// job_finished; a store answer's stream is its terminal snapshot (its
// job_finished went out at admission, before any client knew its id).
// The run-level /events stream carries the CLI lifecycle types and the
// regression mirror; its at_ms is host time and is masked.
func TestSSEGoldenFrames(t *testing.T) {
	led, err := ledger.Open(t.TempDir(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	mgr := jobs.New(goldenExec, 8)
	mgr.SetStore(led)
	s := New(nil, nil)
	s.AttachJobs(mgr)
	s.AttachLedger(led)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Pin seed 1 as the baseline; seed 3 regresses against it.
	base := seedSpec(1).Normalized()
	res, err := latencyExec(context.Background(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := base.Hash()
	specJSON, _ := spec.Encode(base)
	if err := led.Put(hash, res.Address, res.ManifestJSON, specJSON, "cli"); err != nil {
		t.Fatal(err)
	}
	if _, err := led.Pin("golden", hash); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evReq, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	evResp, err := http.DefaultClient.Do(evReq)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	events := bufio.NewReader(evResp.Body)

	publishJSON(t, s.Hub().Publish,
		`{"type":"experiment_start","at_ms":3,"experiment":"fig8f","title":"Sensitivity"}`,
		`{"type":"cell","at_ms":41,"experiment":"fig8f","done":1,"total":2}`,
		`{"type":"experiment_end","at_ms":97,"experiment":"fig8f","wall_s":0.094}`)

	// The worker is not running yet, so the job is still queued when its
	// stream opens.
	fresh := postTraced(t, ts.URL, seedSpec(3))
	freshResp, err := http.Get(ts.URL + "/runs/" + fresh.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { mgr.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	freshFrames := jobStream(t, freshResp)

	hit := postTraced(t, ts.URL, seedSpec(3))
	hitResp, err := http.Get(ts.URL + "/runs/" + hit.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	hitFrames := jobStream(t, hitResp)

	publishJSON(t, s.Hub().Publish, `{"type":"run_end","at_ms":130}`)
	runFrames := regexp.MustCompile(`"at_ms":\d+`).ReplaceAllString(readUntil(t, events, "run_end"), `"at_ms":*`)

	for _, c := range []struct{ name, got, want string }{
		{"fresh job", freshFrames, goldenFresh},
		{"cache hit", hitFrames, goldenHit},
		{"/events", runFrames, goldenRun},
	} {
		if c.got != c.want {
			t.Errorf("%s stream:\n--- got ---\n%s--- want ---\n%s", c.name, c.got, c.want)
		}
	}
}

const goldenFresh = `event: status
data: {"id":"run-000001","state":"queued","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a","spec":{"version":1,"experiments":["fig8f"],"workloads":4,"instructions":0,"warmup":0,"duration_ns":0,"sample_every":0,"seed":3,"workers":0,"output":{"reports":false}},"queue_position":1}

id: 2
event: job_started
data: {"seq":2,"type":"job_started","at_ms":0,"job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a","state":"running","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}

id: 3
event: experiment_start
data: {"seq":3,"type":"experiment_start","at_ms":0,"experiment":"fig8f","title":"Sensitivity","job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a"}

id: 4
event: cell
data: {"seq":4,"type":"cell","at_ms":0,"experiment":"fig8f","done":1,"total":2,"job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a"}

id: 5
event: experiment_end
data: {"seq":5,"type":"experiment_end","at_ms":0,"experiment":"fig8f","wall_s":0.25,"job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a"}

id: 6
event: regression
data: {"seq":6,"type":"regression","at_ms":0,"job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","baseline":"golden","regressions":2,"metric":"device/EMR2S/CXL-B/latency_ns mean","delta":0.4}

id: 7
event: job_finished
data: {"seq":7,"type":"job_finished","at_ms":0,"job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a","state":"done","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}

`

const goldenHit = `event: status
data: {"id":"run-000002","state":"done","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a","spec":{"version":1,"experiments":["fig8f"],"workloads":4,"instructions":0,"warmup":0,"duration_ns":0,"sample_every":0,"seed":3,"workers":0,"output":{"reports":false}},"cache_hit":true,"manifest_address":"sha256:781610869eb07c602326e274c5b5a35ded912ad25e8d7d28b2ec52cab30488c0"}

`

const goldenRun = `: melody observatory event stream

id: 1
event: experiment_start
data: {"seq":1,"type":"experiment_start","at_ms":*,"experiment":"fig8f","title":"Sensitivity"}

id: 2
event: cell
data: {"seq":2,"type":"cell","at_ms":*,"experiment":"fig8f","done":1,"total":2}

id: 3
event: experiment_end
data: {"seq":3,"type":"experiment_end","at_ms":*,"experiment":"fig8f","wall_s":0.094}

id: 4
event: regression
data: {"seq":4,"type":"regression","at_ms":*,"job":"run-000001","spec_hash":"sha256:233f3c854f56ecdbccbe92470a6dd548663cf0b31be388aa057ea21326f8127a","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","baseline":"golden","regressions":2,"metric":"device/EMR2S/CXL-B/latency_ns mean","delta":0.4}

id: 5
event: run_end
data: {"seq":5,"type":"run_end","at_ms":*}

`
