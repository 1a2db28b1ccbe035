package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/svclog"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

// jobAPI mounts an internal/jobs.Manager on the observatory mux: spec
// submission with admission control, per-job status and manifest
// retrieval, and a per-job SSE stream fed from the manager's event
// notifications through the same bounded drop-oldest subscriber
// queues as the run-level /events endpoint.
//
// The API's own counters live in the observatory self-registry — like
// every other serve instrument they are visible on /metrics but never
// merged into an engine registry, so attaching the job API cannot
// perturb any run's manifest.
type jobAPI struct {
	mgr *jobs.Manager
	srv *Server

	submits     *obs.Counter
	accepted    *obs.Counter
	cacheHits   *obs.Counter
	rejectFull  *obs.Counter
	rejectDrain *obs.Counter
	rejectBad   *obs.Counter
	published   *obs.Counter
	dropped     *obs.Counter

	mu   sync.Mutex
	hubs map[string]*Hub
}

// AttachJobs mounts mgr as the observatory's job API (call before
// Handler/Start, after SetLogger). The server subscribes to the
// manager's event stream; events fan out to per-job hubs backing
// /runs/{id}/events. The manager's lifecycle instruments (queue-wait
// and execution histograms, terminal-state counters) are pointed at
// the self-registry so they surface on /metrics without ever touching
// an engine registry.
func (s *Server) AttachJobs(mgr *jobs.Manager) {
	mgr.SetMetrics(s.self)
	mgr.SetTracer(s.tracer)
	api := &jobAPI{
		mgr:         mgr,
		srv:         s,
		submits:     s.self.Counter("serve/jobs_submitted"),
		accepted:    s.self.Counter("serve/jobs_accepted"),
		cacheHits:   s.self.Counter("serve/jobs_cache_hits"),
		rejectFull:  s.self.Counter("serve/jobs_rejected_queue_full"),
		rejectDrain: s.self.Counter("serve/jobs_rejected_draining"),
		rejectBad:   s.self.Counter("serve/jobs_rejected_invalid"),
		published:   s.self.Counter("serve/job_events_published"),
		dropped:     s.self.Counter("serve/job_events_dropped"),
		hubs:        map[string]*Hub{},
	}
	mgr.SetNotify(api.onEvent)
	s.jobs = api
}

// hub returns jobID's event hub, creating it unless the job is already
// terminal. A job's hub lives from its first event to its job_finished;
// a store answer, born done, never gets one, and a nil hub publishes
// nothing.
func (a *jobAPI) hub(jobID string) *Hub {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := a.hubs[jobID]
	if h == nil {
		if st, ok := a.mgr.Status(jobID); !ok || !st.State.Terminal() {
			h = NewHub(a.published, a.dropped)
			a.hubs[jobID] = h
		}
	}
	return h
}

// onEvent publishes a manager notification on the job's hub. The
// manager delivers events synchronously from the submit/execute path;
// Publish is non-blocking by construction (drop-oldest), so a slow SSE
// client can never stall a running experiment.
func (a *jobAPI) onEvent(ev jobs.Event) {
	// A job starting is the moment worth profiling: trigger an immediate
	// CPU capture so even a job shorter than the routine interval gets a
	// profile overlapping its execution (nil profiler no-ops).
	if ev.Type == jobs.EventStarted {
		a.srv.prof.TriggerCPU(hostprof.ReasonJobStart)
	}
	// A freshly completed (not cache-answered, not partial) run is the
	// moment for baseline regression checks — before the job_finished
	// event below, so per-job SSE subscribers, whose stream closes at
	// job_finished, still receive any regression event.
	if ev.Type == jobs.EventFinished && ev.State == jobs.StateDone &&
		!ev.Interrupted && !ev.CacheHit {
		a.diffOnCompletion(ev)
	}
	h := a.hub(ev.JobID)
	if ev.Type == jobs.EventFinished {
		// The job's last event: drop its hub before publishing, so no
		// hub outlives a stream that has ended.
		a.mu.Lock()
		delete(a.hubs, ev.JobID)
		a.mu.Unlock()
	}
	h.Publish(ev)
}

// submit is POST /runs: decode a RunSpec, admit it, answer with the
// job status. 202 queued (or coalesced onto an in-flight duplicate),
// 200 answered from the content-addressed store, 400 undecodable or
// unrunnable, 429 queue full, 503 draining.
func (a *jobAPI) submit(w http.ResponseWriter, r *http.Request) {
	a.submits.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		a.rejectBad.Inc()
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	sp, err := spec.Decode(body)
	if err != nil {
		a.rejectBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// SubmitCtx carries the request's root span so the job's queue/exec
	// spans stay children of this HTTP exchange.
	st, err := a.mgr.SubmitCtx(r.Context(), sp)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		a.rejectFull.Inc()
		// The hint is derived, not hardcoded: queue depth (plus the
		// running job) times the mean observed execution duration, so a
		// client backing off by it re-arrives when the queue has roughly
		// drained.
		w.Header().Set("Retry-After",
			strconv.Itoa(int(a.mgr.RetryAfterHint()/time.Second)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, jobs.ErrDraining):
		a.rejectDrain.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		a.rejectBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a.accepted.Inc()
	code := http.StatusAccepted
	if st.CacheHit {
		a.cacheHits.Inc()
		code = http.StatusOK
	}
	// The one log line that joins the HTTP exchange to the job: req_id
	// ties it to the access log, job_id/spec_hash to the manager's
	// lifecycle lines, SSE events and the manifest store.
	a.srv.log.Info("job submitted",
		svclog.KeyReqID, svclog.ReqID(r.Context()),
		svclog.KeyTraceID, tracespan.SpanFrom(r.Context()).TraceID(),
		svclog.KeyJobID, st.ID,
		svclog.KeySpecHash, st.SpecHash,
		"state", string(st.State),
		"cache_hit", st.CacheHit,
		"queue_position", st.QueuePos,
	)
	w.Header().Set("Location", "/runs/"+st.ID)
	writeJSONStatus(w, code, st)
}

// list is GET /runs. Filters follow the /traces and /profiles
// conventions (bad input answers 400, never a silently-empty list):
//
//	?state=done     only jobs in one lifecycle state
//	?limit=20       at most this many jobs, newest submissions last
//	                (the tail of the submission-ordered list)
func (a *jobAPI) list(w http.ResponseWriter, r *http.Request) {
	limit := -1
	if !queryNum(w, r, "limit", &limit, 0, "a non-negative integer") {
		return
	}
	var state jobs.State
	switch v := jobs.State(r.URL.Query().Get("state")); v {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
		state = v
	default:
		http.Error(w, `bad state: want "queued", "running", "done", "failed" or "canceled"`, http.StatusBadRequest)
		return
	}
	list := a.mgr.List()
	if state != "" {
		kept := list[:0]
		for _, st := range list {
			if st.State == state {
				kept = append(kept, st)
			}
		}
		list = kept
	}
	if limit >= 0 && len(list) > limit {
		// Keep the newest: the tail of the submission-ordered list.
		list = list[len(list)-limit:]
	}
	writeJSON(w, map[string]any{
		"jobs":        list,
		"queue_depth": a.mgr.QueueDepth(),
		"queue_cap":   a.mgr.QueueCap(),
		"accepting":   a.mgr.Accepting(),
	})
}

// status is GET /runs/{id}.
func (a *jobAPI) status(w http.ResponseWriter, r *http.Request) {
	st, ok := a.mgr.Status(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// manifest is GET /runs/{id}/manifest: 200 with the manifest JSON
// (content address in the Melody-Manifest-Address header) for done
// jobs — including interrupted ones, whose JSON carries
// "interrupted": true — 202 with the status while queued/running, 404
// unknown, 409 for jobs that terminated without a manifest.
func (a *jobAPI) manifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, addr, err := a.mgr.Manifest(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	case errors.Is(err, jobs.ErrNotFinished):
		st, _ := a.mgr.Status(id)
		writeJSONStatus(w, http.StatusAccepted, st)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Melody-Manifest-Address", addr)
	w.Write(raw)
}

// events is GET /runs/{id}/events: the per-job SSE stream. It opens
// with a snapshot of the job's status, read after the subscriber is
// registered, so the snapshot is never newer than the stream that
// follows; a late subscriber to a finished job gets the terminal
// snapshot and the stream closes. The stream also closes after
// job_finished. Sequence-number gaps mean the client was too slow and
// events were dropped (oldest first), exactly as on /events.
func (a *jobAPI) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := a.mgr.Status(id); !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	h := a.hub(id)
	if h == nil {
		// Terminal: the stream is the final snapshot alone.
		h = NewHub(nil, nil)
	}
	a.srv.stream(w, r, h, func(w io.Writer) bool {
		st, _ := a.mgr.Status(id)
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", EventJobStatus, data)
		return !st.State.Terminal()
	}, jobs.EventFinished)
}
