// Package jobs is the experiment job service: a bounded FIFO queue
// with admission control, per-job status, and a content-addressed run
// store keyed by RunSpec hash. It turns melody from "one CLI
// invocation" into "a service that accepts queued experiment specs" —
// the HTTP front end lives in internal/obs/serve; this package holds
// the queueing and storage semantics so they are testable without a
// socket.
//
// Admission contract:
//
//   - A spec whose hash matches a stored (completed, uninterrupted)
//     run is answered from the store: the returned job is born Done
//     with CacheHit set, and fetching its manifest re-serves the
//     stored bytes. Nothing re-executes.
//   - A spec identical to one already queued or running coalesces onto
//     that job (the singleflight idea, one level up from the cell
//     cache).
//   - Otherwise the spec joins the FIFO queue — unless the queue is at
//     capacity (ErrQueueFull → HTTP 429) or the manager is draining
//     (ErrDraining → HTTP 503).
//
// The package depends only on spec, the obs instrument types and the
// standard library: the executor is injected, so tests drive the queue
// with fakes and the cmd layer plugs in melody.Execute.
//
// Observability: the manager is silent and uninstrumented by default.
// Set Log for structured state-transition lines (each carrying job_id
// and spec_hash, the correlation ids shared with the HTTP layer's
// access logs, the per-job SSE stream and /runs/{id}), and SetMetrics
// to record queue-wait and execution-duration histograms plus
// terminal-state counters into a registry — the observatory points it
// at its self-registry, never at an engine registry, so job telemetry
// can never leak into a run manifest.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/svclog"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

// Admission errors. The HTTP layer maps these onto status codes.
var (
	ErrQueueFull   = errors.New("jobs: queue full")
	ErrDraining    = errors.New("jobs: draining, not accepting new runs")
	ErrUnknownJob  = errors.New("jobs: unknown job")
	ErrNotFinished = errors.New("jobs: job not finished")
	// ErrNoManifest marks a job that terminated without a manifest
	// (failed or canceled before starting).
	ErrNoManifest = errors.New("jobs: job produced no manifest")
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event types. Job-level types bracket the queue lifecycle; the
// experiment-level types come from melody.Execute; run_end closes a
// CLI run's /events stream (a job's stream ends at job_finished
// instead, so the executor never emits it).
const (
	EventQueued          = "job_queued"
	EventStarted         = "job_started"
	EventExperimentStart = "experiment_start"
	EventCell            = "cell"
	EventExperimentEnd   = "experiment_end"
	EventFinished        = "job_finished"
	EventRunEnd          = "run_end"
)

// Event is the one run- and job-lifecycle notification, from
// melody.Execute's hook through the manager to every SSE stream; its
// JSON is the SSE data payload. Seq is assigned by the SSE hub and
// strictly increasing, so a client too slow to keep up sees a gap in
// ids. AtMs is host milliseconds since the run began, stamped only on
// the CLI observatory's /events stream (job streams carry 0): events
// describe the run, never simulated time. JobID and SpecHash are the
// correlation ids: the manager stamps both on every job's events so
// consumers carry the same join keys as the structured logs and
// /runs/{id}.
type Event struct {
	Seq         uint64  `json:"seq"`
	Type        string  `json:"type"`
	AtMs        int64   `json:"at_ms"`
	Experiment  string  `json:"experiment,omitempty"`
	Title       string  `json:"title,omitempty"`
	Done        int     `json:"done,omitempty"`
	Total       int     `json:"total,omitempty"`
	WallS       float64 `json:"wall_s,omitempty"`
	Interrupted bool    `json:"interrupted,omitempty"`
	JobID       string  `json:"job,omitempty"`
	SpecHash    string  `json:"spec_hash,omitempty"`
	State       State   `json:"state,omitempty"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Error       string  `json:"error,omitempty"`
	// TraceID is the submitting request's trace id (empty for untraced
	// submissions): stamped on job-level events so downstream consumers
	// — the regression log line, SSE payloads — carry the same join key
	// as /traces and the access logs.
	TraceID string `json:"trace_id,omitempty"`
	// Regression fields ("regression" events only): which pinned
	// baseline the finished run regressed against, how many metrics
	// tripped the gate, and the worst offender.
	Baseline    string  `json:"baseline,omitempty"`
	Regressions int     `json:"regressions,omitempty"`
	Metric      string  `json:"metric,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
}

// ExecResult is what one executed spec yields: the encoded manifest
// and its content address. Interrupted marks a partial manifest
// (flushed after cancellation) — fetchable, but never stored as the
// spec's cached answer.
type ExecResult struct {
	ManifestJSON []byte
	Address      string
	Interrupted  bool
}

// Executor runs one spec. notify receives experiment-level progress
// events (the executor does not set JobID; the manager stamps it).
// A canceled ctx asks for a graceful stop: return the partial result
// with Interrupted set rather than an error.
type Executor func(ctx context.Context, sp spec.RunSpec, notify func(Event)) (ExecResult, error)

// Status is a job's externally visible snapshot (the GET /runs/{id}
// payload).
type Status struct {
	ID       string       `json:"id"`
	State    State        `json:"state"`
	SpecHash string       `json:"spec_hash"`
	Spec     spec.RunSpec `json:"spec"`
	// QueuePos is the 1-based position among queued jobs (0 once
	// running or terminal).
	QueuePos int `json:"queue_position,omitempty"`
	// QueueWaitS is the time the job spent queued before execution
	// began (0 while still queued, and for store-answered jobs that
	// never executed). ExecS is the execution duration — still ticking
	// for a running job, final once terminal. Both mirror the
	// jobs/queue_wait_seconds and jobs/exec_seconds histograms on
	// /metrics, so one job's latency is joinable against the fleet's.
	QueueWaitS float64 `json:"queue_wait_s,omitempty"`
	ExecS      float64 `json:"exec_s,omitempty"`
	// Experiment/Done/Total track the in-flight experiment's cells.
	Experiment  string `json:"experiment,omitempty"`
	Done        int    `json:"done,omitempty"`
	Total       int    `json:"total,omitempty"`
	CacheHit    bool   `json:"cache_hit,omitempty"`
	Interrupted bool   `json:"interrupted,omitempty"`
	// Restored marks a job reconstructed from the durable run ledger at
	// startup: it represents a run completed by an earlier process.
	Restored bool   `json:"restored,omitempty"`
	Error    string `json:"error,omitempty"`
	// Address is the manifest's content address once the job is done.
	Address string `json:"manifest_address,omitempty"`
}

// job is one job's record. Its Status is what /runs/{id} serves, kept
// current by every transition under the manager's lock; the fields
// below are what Status lacks.
type job struct {
	Status

	// manifest holds the manifest bytes inline for jobs executed by this
	// process. Cache-hit and restored jobs carry only Status.Address —
	// their bytes stay in the store and Manifest loads them on demand, so
	// a durable store's history does not get re-buffered in memory.
	manifest []byte

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	// parent is the submitting request's span context, captured at
	// SubmitCtx time — the hand-off that keeps a trace connected across
	// the queue boundary after the HTTP span has long since answered 202.
	parent tracespan.SpanContext

	// log is the manager's logger bound to the job's job_id and
	// spec_hash, the correlation ids every transition line carries.
	log *slog.Logger
}

// traceID returns the submitting request's trace id, or "" for an
// untraced submission (the zero TraceID must not leak as a string of
// zeros into events and logs).
func (j *job) traceID() string {
	if !j.parent.Valid() {
		return ""
	}
	return j.parent.Trace.String()
}

// event builds a job-level event of type typ from the record. Call it
// under the manager's lock, in the step that made the transition.
func (j *job) event(typ string) Event {
	return Event{Type: typ, JobID: j.ID, SpecHash: j.SpecHash, TraceID: j.traceID(),
		State: j.State, CacheHit: j.CacheHit, Interrupted: j.Interrupted, Error: j.Error}
}

// Manager owns the queue, the job table, and the run store. One
// worker goroutine (Run) executes jobs FIFO; Submit and the read
// methods are safe from any goroutine.
type Manager struct {
	exec     Executor
	queueCap int

	// Vet, when set, is the admission check beyond structural spec
	// validity (the cmd layer installs melody.VetSpec so unknown
	// experiment ids are rejected at POST time). Set before Run.
	Vet func(spec.RunSpec) error

	// Log, when set, receives structured state-transition lines
	// (queued, started, finished, canceled — each with job_id,
	// spec_hash, queue depth and durations). Set before the first
	// RestoreJob or Submit: each job binds its logger when it is
	// created. nil is silent.
	Log *slog.Logger

	// now is the clock behind queue-wait/execution timing; tests pin
	// it for deterministic durations.
	now func() time.Time

	met *metrics

	// tracer, when set, turns each traced submission into a queue span
	// (reconstructed post-hoc from the submit/start stamps) and a live
	// exec span parenting everything melody.Execute records. Set before
	// Run; nil (and untraced submissions) record nothing.
	tracer *tracespan.Tracer

	notifyMu sync.Mutex
	notify   func(Event)

	mu       sync.Mutex
	byID     map[string]*job
	order    []string
	queue    []*job
	live     map[string]*job // spec hash → queued/running job (coalescing)
	store    RunStore        // spec hash → completed result (memory or ledger)
	nextID   int
	draining bool
	// execCount/execSum accumulate finished execution durations for the
	// Retry-After estimate (independent of SetMetrics, which is optional).
	execCount int
	execSum   float64

	wake chan struct{}
}

// DefaultQueueCap bounds the pending-run queue when the caller passes
// 0: deep enough to absorb a burst of sweep submissions, shallow
// enough that a stuck worker surfaces as 429s instead of unbounded
// memory.
const DefaultQueueCap = 16

// New returns a manager executing specs with exec; queueCap bounds the
// pending queue (0 = DefaultQueueCap).
func New(exec Executor, queueCap int) *Manager {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	return &Manager{
		exec:     exec,
		queueCap: queueCap,
		now:      time.Now,
		byID:     map[string]*job{},
		live:     map[string]*job{},
		store:    newMemStore(),
		wake:     make(chan struct{}, 1),
	}
}

// SetStore replaces the in-memory run store (the default) with st —
// typically an internal/obs/ledger.Ledger, which makes completed runs
// durable across restarts. Call before Run and before any Submit.
func (m *Manager) SetStore(st RunStore) {
	if st == nil {
		return
	}
	m.mu.Lock()
	m.store = st
	m.mu.Unlock()
}

// RestoreJob rebuilds one completed run from a durable store's history
// as a done job in the table, so GET /runs lists work finished by
// earlier processes. specJSON is the canonical spec recorded at store
// time; the manifest bytes stay in the store and are loaded on demand.
// Call at startup, before Run.
func (m *Manager) RestoreJob(specHash, address string, specJSON []byte, at time.Time) error {
	sp, err := spec.Decode(specJSON)
	if err != nil {
		return fmt.Errorf("jobs: restore %s: %w", specHash, err)
	}
	m.mu.Lock()
	j := m.newJobLocked(sp.Normalized(), specHash, StateDone)
	j.Restored = true
	j.Address = address
	j.submittedAt, j.startedAt, j.finishedAt = at, at, at
	m.mu.Unlock()
	j.log.Debug("job restored from ledger")
	return nil
}

// metrics is the manager's optional instrument set.
type metrics struct {
	queueWait *obs.Histogram
	execDur   *obs.Histogram
	finished  map[State]*obs.Counter
}

// SetMetrics points the manager's job-lifecycle instruments at reg:
// jobs/queue_wait_seconds and jobs/exec_seconds histograms, plus one
// jobs/finished counter per terminal state (rendered as
// <ns>_jobs_finished_total{state="done"|"failed"|"canceled"} by the
// prom encoder). Call before Run.
func (m *Manager) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.met = &metrics{
		queueWait: reg.Histogram("jobs/queue_wait_seconds"),
		execDur:   reg.Histogram("jobs/exec_seconds"),
		finished:  map[State]*obs.Counter{},
	}
	for _, s := range []State{StateDone, StateFailed, StateCanceled} {
		m.met.finished[s] = reg.Counter("jobs/finished|state=" + string(s))
	}
}

// SetTracer installs the span tracer queue/exec spans record into.
// Call before Run.
func (m *Manager) SetTracer(tr *tracespan.Tracer) { m.tracer = tr }

// logger returns the installed logger or a silent one.
func (m *Manager) logger() *slog.Logger {
	if m.Log != nil {
		return m.Log
	}
	return svclog.Discard()
}

// SetNotify installs the event observer (the HTTP layer routes events
// into per-job SSE hubs). Events are delivered synchronously from the
// submitting or executing goroutine; the observer must not block.
func (m *Manager) SetNotify(fn func(Event)) {
	m.notifyMu.Lock()
	m.notify = fn
	m.notifyMu.Unlock()
}

func (m *Manager) emit(ev Event) {
	m.notifyMu.Lock()
	fn := m.notify
	m.notifyMu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// Submit admits one spec. See the package comment for the admission
// contract. The returned Status is the job's state at admission time:
// StateDone with CacheHit for store answers, StateQueued otherwise
// (or the coalesced-onto job's current state).
func (m *Manager) Submit(sp spec.RunSpec) (Status, error) {
	return m.SubmitCtx(context.Background(), sp)
}

// SubmitCtx is Submit with the submitting request's context: when ctx
// carries an active tracespan span (the HTTP middleware's root), its
// SpanContext is captured on the job so the queue/exec spans the worker
// later records stay children of the originating request — the context
// itself is NOT retained (the request will be long gone when the job
// runs). Cache-hit and coalesced answers capture nothing: no queue or
// exec work happens on their behalf.
func (m *Manager) SubmitCtx(ctx context.Context, sp spec.RunSpec) (Status, error) {
	parent := tracespan.ContextFrom(ctx)
	n := sp.Normalized()
	if err := n.Validate(); err != nil {
		return Status{}, err
	}
	if m.Vet != nil {
		if err := m.Vet(n); err != nil {
			return Status{}, err
		}
	}
	hash, err := n.Hash()
	if err != nil {
		return Status{}, err
	}

	m.mu.Lock()
	// Identical spec already in flight: coalesce.
	if j := m.live[hash]; j != nil {
		st := m.statusLocked(j)
		m.mu.Unlock()
		j.log.Debug("job coalesced onto live duplicate")
		return st, nil
	}
	// Identical spec already solved: answer from the store. Stat, not
	// Get — the job carries only the content address; Manifest streams
	// the bytes from the store when a client actually fetches them.
	if addr, ok := m.store.Stat(hash); ok {
		j := m.newJobLocked(n, hash, StateDone)
		j.CacheHit = true
		j.Address = addr
		j.parent = parent
		st, fin := m.statusLocked(j), j.event(EventFinished)
		m.mu.Unlock()
		j.log.Info("job served from store")
		m.emit(fin)
		return st, nil
	}
	if m.draining {
		m.mu.Unlock()
		m.logger().Warn("job rejected", "reason", "draining", svclog.KeySpecHash, hash)
		return Status{}, ErrDraining
	}
	if len(m.queue) >= m.queueCap {
		m.mu.Unlock()
		m.logger().Warn("job rejected", "reason", "queue_full",
			svclog.KeySpecHash, hash, "queue_depth", m.QueueDepth(), "queue_cap", m.queueCap)
		return Status{}, ErrQueueFull
	}
	j := m.newJobLocked(n, hash, StateQueued)
	j.parent = parent
	j.submittedAt = m.now()
	m.queue = append(m.queue, j)
	m.live[hash] = j
	depth := len(m.queue)
	st, queued := m.statusLocked(j), j.event(EventQueued)
	m.mu.Unlock()

	j.log.Info("job queued", "queue_depth", depth, "queue_cap", m.queueCap)
	m.emit(queued)
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return st, nil
}

func (m *Manager) newJobLocked(sp spec.RunSpec, hash string, state State) *job {
	m.nextID++
	id := fmt.Sprintf("run-%06d", m.nextID)
	j := &job{
		Status: Status{ID: id, State: state, SpecHash: hash, Spec: sp},
		log:    m.logger().With(svclog.KeyJobID, id, svclog.KeySpecHash, hash),
	}
	m.byID[id] = j
	m.order = append(m.order, id)
	return j
}

// Run is the worker loop: it executes queued jobs FIFO until ctx is
// done, then drains — queued jobs are canceled, the in-flight job (its
// executor sees the canceled ctx) finishes gracefully and flushes its
// partial manifest — and returns.
//
// Each transition — start, finish, cancel — changes the record, its
// jobs/* instruments and its event in one lock section, so a reader
// that sees a state also sees it counted.
func (m *Manager) Run(ctx context.Context) {
	// Flip to draining the moment shutdown is requested, even while a
	// job is mid-execution, so /readyz reports it immediately.
	stop := context.AfterFunc(ctx, m.StartDrain)
	defer stop()

	for {
		m.mu.Lock()
		var j *job
		var depth int
		var queueWait float64
		var started Event
		if ctx.Err() == nil && len(m.queue) > 0 {
			j = m.queue[0]
			m.queue = m.queue[1:]
			depth = len(m.queue)
			j.State = StateRunning
			j.startedAt = m.now()
			queueWait = j.startedAt.Sub(j.submittedAt).Seconds()
			if m.met != nil {
				m.met.queueWait.Record(queueWait)
			}
			started = j.event(EventStarted)
		}
		m.mu.Unlock()

		if j == nil {
			select {
			case <-ctx.Done():
				m.StartDrain()
				return
			case <-m.wake:
				continue
			}
		}

		j.log.Info("job started", "queue_wait_s", queueWait, "queue_depth", depth)
		m.emit(started)
		// The executor's ctx carries the job id so the execution layer
		// (melody.Execute hooks, its logger) can stamp the same
		// correlation id without widening the Executor signature.
		execCtx := WithJobID(ctx, j.ID)
		// Traced submission: the wait the job just served becomes a
		// post-hoc queue span under the submitting request, and the
		// execution ahead becomes a live exec span (carried in execCtx,
		// so melody.Execute's run/experiment/cell spans parent onto it).
		// Record on a nil tracer or an untraced job yields the zero
		// SpanContext and StartChild then no-ops.
		var execSpan *tracespan.Span
		if qsc := m.tracer.Record(j.parent, "queue", j.submittedAt, j.startedAt,
			tracespan.String(svclog.KeyJobID, j.ID),
			tracespan.String(svclog.KeySpecHash, j.SpecHash),
		); qsc.Valid() {
			execCtx, execSpan = m.tracer.StartChild(execCtx, qsc, "exec",
				tracespan.String(svclog.KeyJobID, j.ID),
				tracespan.String(svclog.KeySpecHash, j.SpecHash),
			)
		}
		// Execute under pprof labels so host CPU profiles captured by the
		// continuous profiler (internal/obs/hostprof) attribute samples to
		// this job: every goroutine melody.Execute spawns inherits the
		// labels, making a capture sliceable per job with
		// `go tool pprof -tagfocus job_id=<id>`.
		var res ExecResult
		var err error
		pprof.Do(execCtx, pprof.Labels(svclog.KeyJobID, j.ID, svclog.KeySpecHash, j.SpecHash),
			func(execCtx context.Context) {
				res, err = m.exec(execCtx, j.Spec, func(ev Event) {
					ev.JobID, ev.SpecHash = j.ID, j.SpecHash
					// Fold the in-flight experiment's cell count into the record.
					if ev.Type == EventExperimentStart || ev.Type == EventCell {
						m.mu.Lock()
						j.Experiment, j.Done, j.Total = ev.Experiment, ev.Done, ev.Total
						m.mu.Unlock()
					}
					m.emit(ev)
				})
			})

		m.mu.Lock()
		now := m.now()
		execS := now.Sub(j.startedAt).Seconds()
		m.execCount++
		m.execSum += execS
		if m.met != nil {
			m.met.execDur.Record(execS)
		}
		state := StateFailed
		var storeErr error
		if err != nil {
			j.Error = err.Error()
		} else {
			state = StateDone
			j.manifest, j.Address, j.Interrupted = res.ManifestJSON, res.Address, res.Interrupted
			if !res.Interrupted {
				// File the completed run under its spec hash. The canonical
				// spec rides along so a durable store can rebuild /runs
				// history at the next startup. A store failure is logged,
				// not fatal: the job itself succeeded and its manifest is
				// still served inline from j.manifest.
				var specJSON []byte
				if specJSON, storeErr = spec.Encode(j.Spec); storeErr == nil {
					storeErr = m.store.Put(j.SpecHash, j.Address, j.manifest, specJSON, j.ID)
				}
			}
		}
		fin := m.finishLocked(j, state, now)
		m.mu.Unlock()

		if storeErr != nil {
			j.log.Error("run store put failed", "err", storeErr.Error())
		}
		if err != nil {
			execSpan.SetError(err.Error())
			j.log.Error("job failed", "exec_s", execS, "err", err.Error())
		} else {
			j.log.Info("job finished", "exec_s", execS, "interrupted", res.Interrupted)
		}
		execSpan.SetAttr("state", string(state))
		if res.Interrupted {
			execSpan.SetAttr("interrupted", "true")
		}
		execSpan.End()
		m.emit(fin)
	}
}

// finishLocked moves j to terminal state s at time at: the record, the
// jobs/finished{state} counter and the job_finished event change
// together, under the lock the caller holds.
func (m *Manager) finishLocked(j *job, s State, at time.Time) Event {
	j.State, j.finishedAt = s, at
	delete(m.live, j.SpecHash)
	if m.met != nil {
		m.met.finished[s].Inc()
	}
	return j.event(EventFinished)
}

// StartDrain stops admission and cancels every queued job. Idempotent;
// safe from any goroutine. The in-flight job (if any) is untouched —
// its cancellation arrives through the Run context.
func (m *Manager) StartDrain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	canceled := m.queue
	m.queue = nil
	now := m.now()
	fins := make([]Event, len(canceled))
	for i, j := range canceled {
		fins[i] = m.finishLocked(j, StateCanceled, now)
	}
	m.mu.Unlock()
	m.logger().Info("draining", "canceled_jobs", len(canceled))
	for i, j := range canceled {
		j.log.Info("job canceled", "queue_wait_s", now.Sub(j.submittedAt).Seconds())
		m.emit(fins[i])
	}
}

// Accepting reports whether Submit would consider new work (it may
// still refuse with ErrQueueFull).
func (m *Manager) Accepting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.draining
}

// QueueDepth returns the number of queued (not yet running) jobs.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// QueueCap returns the admission bound.
func (m *Manager) QueueCap() int { return m.queueCap }

// JobsDuring returns, in submission order, the ids of the jobs this
// process executed at some point in [from, to]: started by to and
// still running or finished no earlier than from. The continuous
// profiler stamps each capture with the jobs its window overlapped, so
// profiles are findable by job id — and protected from routine
// eviction — even for a job that started and finished inside one
// window.
func (m *Manager) JobsDuring(from, to time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The one worker runs jobs FIFO, so the jobs it executed started and
	// finished in submission order: walking back from the newest, the
	// first one that finished before from ends the search, and the scan
	// stays near the window however long the job table grows. Store
	// answers and restored history never ran here and are passed over.
	var out []string
	for i := len(m.order) - 1; i >= 0; i-- {
		j := m.byID[m.order[i]]
		if j.Restored || j.startedAt.IsZero() || j.startedAt.After(to) {
			continue
		}
		if !j.finishedAt.IsZero() && j.finishedAt.Before(from) {
			break
		}
		out = append(out, j.ID)
	}
	slices.Reverse(out)
	return out
}

// StoreSize returns the number of cached spec→manifest entries.
func (m *Manager) StoreSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Len()
}

// Status returns one job's snapshot.
func (m *Manager) Status(id string) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Status{}, false
	}
	return m.statusLocked(j), true
}

// List returns every job in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.byID[id]))
	}
	return out
}

// Manifest returns a finished job's manifest bytes and content
// address. Queued/running jobs return ErrNotFinished; failed or
// canceled jobs return ErrNoManifest. Interrupted (partial) manifests
// are served — their Interrupted flag is in the JSON. Cache-hit and
// restored jobs hold only the address; their bytes are loaded from the
// store on demand (a store that has since evicted the entry yields
// ErrNoManifest).
func (m *Manager) Manifest(id string) ([]byte, string, error) {
	m.mu.Lock()
	j, ok := m.byID[id]
	if !ok {
		m.mu.Unlock()
		return nil, "", ErrUnknownJob
	}
	rec, st := *j, m.store
	m.mu.Unlock()
	switch rec.State {
	case StateDone:
		if rec.manifest != nil {
			return rec.manifest, rec.Address, nil
		}
		if b, addr, ok := st.Get(rec.SpecHash); ok {
			return b, addr, nil
		}
		return nil, "", fmt.Errorf("%w: evicted from run store", ErrNoManifest)
	case StateFailed:
		return nil, "", fmt.Errorf("%w: %s", ErrNoManifest, rec.Error)
	case StateCanceled:
		return nil, "", fmt.Errorf("%w: canceled before execution", ErrNoManifest)
	}
	return nil, "", ErrNotFinished
}

// ManifestBySpec returns the stored manifest for a spec hash, straight
// from the run store (it needs no job in the table — restored history
// and direct spec-hash lookups both land here).
func (m *Manager) ManifestBySpec(specHash string) ([]byte, string, bool) {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	return st.Get(specHash)
}

// statusLocked returns j's record with the three fields that depend on
// the clock or the queue filled in: QueuePos, QueueWaitS and ExecS
// (still ticking while the job runs).
func (m *Manager) statusLocked(j *job) Status {
	st := j.Status
	if !j.startedAt.IsZero() {
		st.QueueWaitS = j.startedAt.Sub(j.submittedAt).Seconds()
		end := j.finishedAt
		if end.IsZero() {
			end = m.now()
		}
		st.ExecS = end.Sub(j.startedAt).Seconds()
	}
	if j.State == StateQueued {
		st.QueuePos = slices.Index(m.queue, j) + 1
	}
	return st
}
