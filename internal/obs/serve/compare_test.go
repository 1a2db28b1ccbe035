package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/diff"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/ledger"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// latencyExec produces a real, decodable manifest whose gated latency
// scales with the spec seed — seed 1 is the fast baseline, higher
// seeds regress by 20% per step. That makes regressions a function of
// which specs a test submits.
func latencyExec(ctx context.Context, sp spec.RunSpec, notify func(jobs.Event)) (jobs.ExecResult, error) {
	mean := 400.0 * (1 + 0.2*float64(sp.Seed-1))
	m := melody.Manifest{
		Tool: "melody", Seed: sp.Seed, Workers: 1, Workloads: sp.Workloads,
		Experiments: []melody.ExperimentTiming{{ID: sp.Experiments[0], WallS: 1}},
		Cells: []melody.CellTiming{
			{Workload: "w", Config: "CXL-B", Platform: "EMR2S", Seed: sp.Seed, WallMs: 2},
		},
		Registry: obs.Snapshot{
			Counters: map[string]uint64{},
			Gauges:   map[string]float64{},
			Histograms: map[string]obs.Summary{
				"device/EMR2S/CXL-B/latency_ns": {Count: 100, Mean: mean, P99: mean * 2},
			},
		},
	}
	raw, err := melody.EncodeManifest(m)
	if err != nil {
		return jobs.ExecResult{}, err
	}
	addr, err := m.Address()
	if err != nil {
		return jobs.ExecResult{}, err
	}
	return jobs.ExecResult{ManifestJSON: raw, Address: addr}, nil
}

// seedSpec returns one experiment set at a given seed: same experiment
// set (so baselines match), different spec hash (so both runs store).
func seedSpec(seed uint64) spec.RunSpec {
	return spec.RunSpec{Experiments: []string{"fig8f"}, Workloads: 4, Seed: seed}
}

// ledgerFixture is one wired-up observatory: manager + durable ledger
// + server, with a log sink for asserting structured regression lines.
type ledgerFixture struct {
	mgr *jobs.Manager
	led *ledger.Ledger
	srv *Server
	ts  *httptest.Server
	log *bytes.Buffer
}

func newLedgerServer(t *testing.T) *ledgerFixture {
	t.Helper()
	led, err := ledger.Open(t.TempDir(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	mgr := jobs.New(latencyExec, 8)
	mgr.SetStore(led)
	s := New(nil, nil)
	var logBuf bytes.Buffer
	logger, err := svclog.New(&logBuf, svclog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(logger)
	mgr.Log = logger
	s.AttachJobs(mgr)
	s.AttachLedger(led)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { mgr.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
	return &ledgerFixture{mgr: mgr, led: led, srv: s, ts: ts, log: &logBuf}
}

// runSeed submits one seeded spec and waits for completion.
func runSeed(t *testing.T, ts *httptest.Server, seed uint64) jobs.Status {
	t.Helper()
	resp, st := postSpec(t, ts.URL, seedSpec(seed))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST seed %d = %d", seed, resp.StatusCode)
	}
	return waitState(t, ts.URL, st.ID, jobs.StateDone)
}

func getAccept(t *testing.T, url, accept string) (string, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String(), resp
}

func TestCompareEndpoint(t *testing.T) {
	ts := newLedgerServer(t).ts
	fast := runSeed(t, ts, 1) // 400ns
	slow := runSeed(t, ts, 2) // 480ns: +20%

	// Default dialect: the human table.
	body, resp := getAccept(t, ts.URL+"/compare?base="+fast.ID+"&head="+slow.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compare = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("table content type = %q", ct)
	}
	if !strings.Contains(body, "REGR") {
		t.Fatalf("table missing REGR row:\n%s", body)
	}

	// JSON via content negotiation.
	body, resp = getAccept(t, ts.URL+"/compare?base="+fast.ID+"&head="+slow.ID, "application/json")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("json content type = %q", ct)
	}
	var rep diff.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad /compare json: %v\n%s", err, body)
	}
	if !rep.HasRegressions() {
		t.Fatalf("report has no regressions: %s", body)
	}

	// Spec-hash operands resolve through the run store.
	body, resp = getAccept(t, ts.URL+"/compare?base="+fast.SpecHash+"&head="+slow.SpecHash, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compare by spec hash = %d: %s", resp.StatusCode, body)
	}

	// Improvement direction: no regressions, and a wide threshold
	// silences even the regression direction.
	body, _ = getAccept(t, ts.URL+"/compare?base="+slow.ID+"&head="+fast.ID, "application/json")
	var improved diff.Report
	json.Unmarshal([]byte(body), &improved)
	if improved.HasRegressions() {
		t.Fatalf("improvement direction reported regressions: %s", body)
	}
	body, _ = getAccept(t, ts.URL+"/compare?base="+fast.ID+"&head="+slow.ID+"&threshold=0.5", "application/json")
	var wide diff.Report
	json.Unmarshal([]byte(body), &wide)
	if wide.HasRegressions() {
		t.Fatalf("+20%% tripped a 50%% threshold: %s", body)
	}
}

// TestCompareAgreesWithMelodydiff is the acceptance pin: /compare and
// the CLI gate share diff.Compare, so on the same manifest pair the
// service's HasRegressions answer must match what melodydiff's exit
// code (rep.HasRegressions) would say for the served bytes.
func TestCompareAgreesWithMelodydiff(t *testing.T) {
	ts := newLedgerServer(t).ts
	fast := runSeed(t, ts, 1)
	slow := runSeed(t, ts, 2)

	// What melodydiff would do: diff.Load both manifests over HTTP (the
	// URL-operand path) and diff.Compare them.
	baseM, err := diff.Load(ts.URL + "/runs/" + fast.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	headM, err := diff.Load(ts.URL + "/runs/" + slow.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	cliRep := diff.Compare(baseM, headM, diff.Options{})

	body, resp := getAccept(t, ts.URL+"/compare?base="+fast.ID+"&head="+slow.ID, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compare = %d", resp.StatusCode)
	}
	var srvRep diff.Report
	if err := json.Unmarshal([]byte(body), &srvRep); err != nil {
		t.Fatal(err)
	}
	if srvRep.HasRegressions() != cliRep.HasRegressions() {
		t.Fatalf("service says regressions=%v, CLI library says %v",
			srvRep.HasRegressions(), cliRep.HasRegressions())
	}
	if len(srvRep.Regressions) != len(cliRep.Regressions) {
		t.Fatalf("service found %d regressions, CLI %d",
			len(srvRep.Regressions), len(cliRep.Regressions))
	}
	for i := range srvRep.Regressions {
		if srvRep.Regressions[i].Metric != cliRep.Regressions[i].Metric {
			t.Fatalf("regression %d: %q vs %q", i,
				srvRep.Regressions[i].Metric, cliRep.Regressions[i].Metric)
		}
	}
}

func TestCompareBadOperands(t *testing.T) {
	ts := newLedgerServer(t).ts
	fast := runSeed(t, ts, 1)

	cases := []struct {
		query string
		want  int
	}{
		{"", http.StatusBadRequest},                               // missing both
		{"base=" + fast.ID, http.StatusBadRequest},                // missing head
		{"base=bogus&head=" + fast.ID, http.StatusBadRequest},     // unparseable operand
		{"base=run-999999&head=" + fast.ID, http.StatusNotFound},  // unknown run id
		{"base=sha256:feed&head=" + fast.ID, http.StatusNotFound}, // unknown spec hash
		{"base=" + fast.ID + "&head=" + fast.ID + "&threshold=-1", http.StatusBadRequest},
		{"base=" + fast.ID + "&head=" + fast.ID + "&threshold=x", http.StatusBadRequest},
	}
	for _, c := range cases {
		body, resp := getAccept(t, ts.URL+"/compare?"+c.query, "")
		if resp.StatusCode != c.want {
			t.Errorf("/compare?%s = %d, want %d (%s)", c.query, resp.StatusCode, c.want, strings.TrimSpace(body))
		}
	}
}

// TestBaselineRegressionFlow drives the whole loop: pin a baseline,
// run a slower spec with the same experiment set, and observe the
// regression surface everywhere at once — counter on /metrics,
// structured Warn line, SSE event on both the run-level and per-job
// streams (before the per-job stream closes).
func TestBaselineRegressionFlow(t *testing.T) {
	f := newLedgerServer(t)
	mgr, ts, logBuf := f.mgr, f.ts, f.log
	fast := runSeed(t, ts, 1)

	// Pin by run id.
	pin, err := json.Marshal(map[string]string{"name": "golden", "run_id": fast.ID})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/baselines", "application/json", bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /baselines = %d", resp.StatusCode)
	}
	body, _ := getAccept(t, ts.URL+"/baselines", "")
	if !strings.Contains(body, `"golden"`) || !strings.Contains(body, fast.SpecHash) {
		t.Fatalf("GET /baselines:\n%s", body)
	}

	// Subscribe to the run-level hub, then run a regressing spec.
	sub := f.srv.Hub().Subscribe()
	defer f.srv.Hub().Unsubscribe(sub)
	slow := runSeed(t, ts, 3) // +40% latency vs baseline

	ev := waitForEvent(t, sub, EventRegression)
	if ev.JobID != slow.ID || ev.Baseline != "golden" || ev.Regressions == 0 {
		t.Fatalf("regression event = %+v", ev)
	}
	if ev.Metric == "" || ev.Delta <= 0 {
		t.Fatalf("regression event missing worst offender: %+v", ev)
	}

	// Counter renders under the engine namespace with the baseline label.
	metrics, _ := getAccept(t, ts.URL+"/metrics", "")
	if !strings.Contains(metrics, `melody_regressions_total{baseline="golden"}`) {
		t.Fatalf("metrics missing melody_regressions_total:\n%s", firstLines(metrics, 40))
	}

	// The structured Warn line carries the correlation ids.
	logs := logBuf.String()
	if !strings.Contains(logs, "baseline regression detected") ||
		!strings.Contains(logs, slow.ID) || !strings.Contains(logs, slow.SpecHash) {
		t.Fatalf("regression log line missing or incomplete:\n%s", logs)
	}

	// A second run of the baseline spec itself is a cache hit — no
	// fresh execution, so no self-comparison regression events.
	before := len(mgr.List())
	resp2, st2 := postSpec(t, ts.URL, seedSpec(1))
	resp2.Body.Close()
	if !st2.CacheHit {
		t.Fatalf("baseline respec not a cache hit: %+v", st2)
	}
	if len(mgr.List()) != before+1 {
		t.Fatal("cache hit did not record a job")
	}

	// Unpin; a further regressing run stays silent.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/baselines/golden", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE /baselines/golden = %d", dresp.StatusCode)
	}
	dresp2, _ := http.DefaultClient.Do(req)
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", dresp2.StatusCode)
	}
}

// TestCompareAgreesWithBaselineHook pins the shared manifest resolver:
// once the pinned-baseline hook flags a run, /compare of the baseline's
// spec hash against that run id reports exactly as many regressions as
// the hook's SSE event and its melody_regressions_total increment.
func TestCompareAgreesWithBaselineHook(t *testing.T) {
	f := newLedgerServer(t)
	fast := runSeed(t, f.ts, 1)
	pin, err := json.Marshal(map[string]string{"name": "golden", "spec_hash": fast.SpecHash})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+"/baselines", "application/json", bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /baselines = %d", resp.StatusCode)
	}
	// regressionsTotal reads the counter off /metrics (0 before the
	// first regression creates it).
	regressionsTotal := func() int {
		metrics, _ := getAccept(t, f.ts.URL+"/metrics", "")
		const series = `melody_regressions_total{baseline="golden"} `
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, series); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("bad sample %q", line)
				}
				return n
			}
		}
		return 0
	}
	before := regressionsTotal()

	sub := f.srv.Hub().Subscribe()
	defer f.srv.Hub().Unsubscribe(sub)
	slow := runSeed(t, f.ts, 3)
	ev := waitForEvent(t, sub, EventRegression)
	if ev.JobID != slow.ID || ev.Regressions == 0 {
		t.Fatalf("regression event = %+v", ev)
	}
	if added := regressionsTotal() - before; added != ev.Regressions {
		t.Fatalf("melody_regressions_total grew by %d, event reports %d", added, ev.Regressions)
	}

	body, resp := getAccept(t, f.ts.URL+"/compare?base="+fast.SpecHash+"&head="+slow.ID, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compare = %d: %s", resp.StatusCode, body)
	}
	var rep diff.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad /compare json: %v\n%s", err, body)
	}
	if len(rep.Regressions) != ev.Regressions {
		t.Fatalf("/compare reports %d regressions, the baseline hook %d", len(rep.Regressions), ev.Regressions)
	}
}

func TestBaselinePinErrors(t *testing.T) {
	ts := newLedgerServer(t).ts
	fast := runSeed(t, ts, 1)

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/baselines", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"name":"bad name!","spec_hash":"` + fast.SpecHash + `"}`); got != http.StatusBadRequest {
		t.Fatalf("bad name = %d, want 400", got)
	}
	if got := post(`{"name":"ok","spec_hash":"sha256:unknown"}`); got != http.StatusNotFound {
		t.Fatalf("unknown hash = %d, want 404", got)
	}
	if got := post(`{"name":"ok","run_id":"run-999999"}`); got != http.StatusNotFound {
		t.Fatalf("unknown run = %d, want 404", got)
	}
	if got := post(`{"name":"ok"}`); got != http.StatusBadRequest {
		t.Fatalf("no ref = %d, want 400", got)
	}
	if got := post(`{"nome":"typo"}`); got != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", got)
	}
}

// TestNoLedgerFallbacks: without a ledger the cross-run routes answer
// 503 with a hint, mirroring the other optional subsystems.
func TestNoLedgerFallbacks(t *testing.T) {
	mgr := jobs.New(latencyExec, 4)
	s := New(nil, nil)
	s.AttachJobs(mgr)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body, resp := getAccept(t, ts.URL+"/baselines", "")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "-data-dir") {
		t.Fatalf("/baselines without ledger = %d: %s", resp.StatusCode, body)
	}
	// /compare needs only the job manager (memory store works);
	// operands that don't resolve still answer 404, not 503.
	_, resp = getAccept(t, ts.URL+"/compare?base=run-000001&head=run-000002", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/compare without ledger = %d, want 404", resp.StatusCode)
	}

	// And with no job API at all, both are 503.
	s2 := New(nil, nil)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	for _, path := range []string{"/compare", "/baselines"} {
		_, resp := getAccept(t, ts2.URL+path, "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s without jobs = %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestRunsListFilters(t *testing.T) {
	ts := newLedgerServer(t).ts
	first := runSeed(t, ts, 1)
	second := runSeed(t, ts, 2)

	type listResp struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	list := func(query string) (listResp, int) {
		body, resp := getAccept(t, ts.URL+"/runs"+query, "")
		var lr listResp
		json.Unmarshal([]byte(body), &lr)
		return lr, resp.StatusCode
	}

	lr, code := list("")
	if code != http.StatusOK || len(lr.Jobs) != 2 {
		t.Fatalf("unfiltered = %d jobs (status %d)", len(lr.Jobs), code)
	}
	lr, code = list("?state=done")
	if code != http.StatusOK || len(lr.Jobs) != 2 {
		t.Fatalf("state=done = %d jobs (status %d)", len(lr.Jobs), code)
	}
	lr, code = list("?state=failed")
	if code != http.StatusOK || len(lr.Jobs) != 0 {
		t.Fatalf("state=failed = %d jobs (status %d)", len(lr.Jobs), code)
	}
	lr, code = list("?limit=1")
	if code != http.StatusOK || len(lr.Jobs) != 1 || lr.Jobs[0].ID != second.ID {
		t.Fatalf("limit=1 = %+v (status %d), want newest %s", lr.Jobs, code, second.ID)
	}
	lr, code = list("?limit=0")
	if code != http.StatusOK || len(lr.Jobs) != 0 {
		t.Fatalf("limit=0 = %d jobs (status %d)", len(lr.Jobs), code)
	}
	if _, code = list("?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("limit=-1 = %d, want 400", code)
	}
	if _, code = list("?limit=x"); code != http.StatusBadRequest {
		t.Fatalf("limit=x = %d, want 400", code)
	}
	if _, code = list("?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("state=bogus = %d, want 400", code)
	}
	_ = first
}

func waitForEvent(t *testing.T, sub *Subscriber, typ string) jobs.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		evs, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("no %q event before timeout", typ)
		}
		for _, ev := range evs {
			if ev.Type == typ {
				return ev
			}
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
