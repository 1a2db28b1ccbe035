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

type job struct {
	id          string
	sp          spec.RunSpec
	hash        string
	state       State
	experiment  string
	done, total int
	cacheHit    bool
	interrupted bool
	restored    bool
	err         error
	// res holds the result inline for jobs executed by this process.
	// Cache-hit and restored jobs carry only the Address — their bytes
	// stay in the store and Manifest loads them on demand, so a durable
	// store's history does not get re-buffered in memory.
	res ExecResult

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	// parent is the submitting request's span context, captured at
	// SubmitCtx time — the hand-off that keeps a trace connected across
	// the queue boundary after the HTTP span has long since answered 202.
	parent tracespan.SpanContext
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
	// spec_hash, queue depth and durations). Set before Run; nil is
	// silent.
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
	j := m.newJobLocked(sp.Normalized(), specHash)
	j.state = StateDone
	j.restored = true
	j.res = ExecResult{Address: address}
	j.submittedAt, j.startedAt, j.finishedAt = at, at, at
	m.mu.Unlock()
	m.logger().Debug("job restored from ledger",
		svclog.KeyJobID, j.id, svclog.KeySpecHash, specHash)
	return nil
}

// metrics is the manager's optional instrument set.
type metrics struct {
	queueWait *obs.Histogram
	execDur   *obs.Histogram
	done      *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
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
		done:      reg.Counter("jobs/finished|state=done"),
		failed:    reg.Counter("jobs/finished|state=failed"),
		canceled:  reg.Counter("jobs/finished|state=canceled"),
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
		m.logger().Debug("job coalesced onto live duplicate",
			svclog.KeyJobID, j.id, svclog.KeySpecHash, hash)
		return st, nil
	}
	// Identical spec already solved: answer from the store. Stat, not
	// Get — the job carries only the content address; Manifest streams
	// the bytes from the store when a client actually fetches them.
	if addr, ok := m.store.Stat(hash); ok {
		j := m.newJobLocked(n, hash)
		j.state = StateDone
		j.cacheHit = true
		j.parent = parent
		j.res = ExecResult{Address: addr}
		st := m.statusLocked(j)
		m.mu.Unlock()
		m.logger().Info("job served from store",
			svclog.KeyJobID, j.id, svclog.KeySpecHash, hash)
		m.emit(Event{JobID: j.id, SpecHash: hash, TraceID: j.traceID(),
			Type: EventFinished, State: StateDone, CacheHit: true})
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
	j := m.newJobLocked(n, hash)
	j.state = StateQueued
	j.parent = parent
	j.submittedAt = m.now()
	m.queue = append(m.queue, j)
	m.live[hash] = j
	depth := len(m.queue)
	st := m.statusLocked(j)
	m.mu.Unlock()

	m.logger().Info("job queued",
		svclog.KeyJobID, j.id, svclog.KeySpecHash, hash,
		"queue_depth", depth, "queue_cap", m.queueCap)
	m.emit(Event{JobID: j.id, SpecHash: hash, TraceID: j.traceID(), Type: EventQueued, State: StateQueued})
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return st, nil
}

func (m *Manager) newJobLocked(sp spec.RunSpec, hash string) *job {
	m.nextID++
	j := &job{id: fmt.Sprintf("run-%06d", m.nextID), sp: sp, hash: hash}
	m.byID[j.id] = j
	m.order = append(m.order, j.id)
	return j
}

// Run is the worker loop: it executes queued jobs FIFO until ctx is
// done, then drains — queued jobs are canceled, the in-flight job (its
// executor sees the canceled ctx) finishes gracefully and flushes its
// partial manifest — and returns.
func (m *Manager) Run(ctx context.Context) {
	// Flip to draining the moment shutdown is requested, even while a
	// job is mid-execution, so /readyz reports it immediately.
	stop := context.AfterFunc(ctx, m.StartDrain)
	defer stop()

	for {
		m.mu.Lock()
		var j *job
		var depth int
		if ctx.Err() == nil && len(m.queue) > 0 {
			j = m.queue[0]
			m.queue = m.queue[1:]
			j.state = StateRunning
			j.startedAt = m.now()
			depth = len(m.queue)
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

		queueWait := j.startedAt.Sub(j.submittedAt).Seconds()
		if m.met != nil {
			m.met.queueWait.Record(queueWait)
		}
		m.logger().Info("job started",
			svclog.KeyJobID, j.id, svclog.KeySpecHash, j.hash,
			"queue_wait_s", queueWait, "queue_depth", depth)
		m.emit(Event{JobID: j.id, SpecHash: j.hash, TraceID: j.traceID(), Type: EventStarted, State: StateRunning})
		// The executor's ctx carries the job id so the execution layer
		// (melody.Execute hooks, its logger) can stamp the same
		// correlation id without widening the Executor signature.
		execCtx := WithJobID(ctx, j.id)
		// Traced submission: the wait the job just served becomes a
		// post-hoc queue span under the submitting request, and the
		// execution ahead becomes a live exec span (carried in execCtx,
		// so melody.Execute's run/experiment/cell spans parent onto it).
		// Record on a nil tracer or an untraced job yields the zero
		// SpanContext and StartChild then no-ops.
		var execSpan *tracespan.Span
		if qsc := m.tracer.Record(j.parent, "queue", j.submittedAt, j.startedAt,
			tracespan.String(svclog.KeyJobID, j.id),
			tracespan.String(svclog.KeySpecHash, j.hash),
		); qsc.Valid() {
			execCtx, execSpan = m.tracer.StartChild(execCtx, qsc, "exec",
				tracespan.String(svclog.KeyJobID, j.id),
				tracespan.String(svclog.KeySpecHash, j.hash),
			)
		}
		// Execute under pprof labels so host CPU profiles captured by the
		// continuous profiler (internal/obs/hostprof) attribute samples to
		// this job: every goroutine melody.Execute spawns inherits the
		// labels, making a capture sliceable per job with
		// `go tool pprof -tagfocus job_id=<id>`.
		var res ExecResult
		var err error
		pprof.Do(execCtx, pprof.Labels(svclog.KeyJobID, j.id, svclog.KeySpecHash, j.hash),
			func(execCtx context.Context) {
				res, err = m.exec(execCtx, j.sp, func(ev Event) {
					ev.JobID = j.id
					ev.SpecHash = j.hash
					m.progress(j, ev)
					m.emit(ev)
				})
			})

		m.mu.Lock()
		delete(m.live, j.hash)
		j.finishedAt = m.now()
		execS := j.finishedAt.Sub(j.startedAt).Seconds()
		m.execCount++
		m.execSum += execS
		var fin Event
		var storeErr error
		switch {
		case err != nil:
			j.state = StateFailed
			j.err = err
			fin = Event{JobID: j.id, SpecHash: j.hash, TraceID: j.traceID(),
				Type: EventFinished, State: StateFailed, Error: err.Error()}
		default:
			j.state = StateDone
			j.res = res
			j.interrupted = res.Interrupted
			if !res.Interrupted {
				// File the completed run under its spec hash. The canonical
				// spec rides along so a durable store can rebuild /runs
				// history at the next startup. A store failure is logged,
				// not fatal: the job itself succeeded and its manifest is
				// still served inline from j.res.
				if specJSON, encErr := spec.Encode(j.sp); encErr != nil {
					storeErr = encErr
				} else {
					storeErr = m.store.Put(j.hash, res.Address, res.ManifestJSON, specJSON, j.id)
				}
			}
			fin = Event{JobID: j.id, SpecHash: j.hash, TraceID: j.traceID(),
				Type: EventFinished, State: StateDone, Interrupted: res.Interrupted}
		}
		m.mu.Unlock()
		if storeErr != nil {
			m.logger().Error("run store put failed",
				svclog.KeyJobID, j.id, svclog.KeySpecHash, j.hash, "err", storeErr.Error())
		}
		if err != nil {
			execSpan.SetError(err.Error())
		}
		execSpan.SetAttr("state", string(fin.State))
		if res.Interrupted {
			execSpan.SetAttr("interrupted", "true")
		}
		execSpan.End()
		if m.met != nil {
			m.met.execDur.Record(execS)
		}
		switch {
		case err != nil:
			m.met.counter(StateFailed).Inc()
			m.logger().Error("job failed",
				svclog.KeyJobID, j.id, svclog.KeySpecHash, j.hash,
				"exec_s", execS, "err", err.Error())
		default:
			m.met.counter(StateDone).Inc()
			m.logger().Info("job finished",
				svclog.KeyJobID, j.id, svclog.KeySpecHash, j.hash,
				"exec_s", execS, "interrupted", res.Interrupted)
		}
		m.emit(fin)
	}
}

// counter maps a terminal state onto its jobs/finished counter. Both
// the nil *metrics receiver and the nil counters it would return are
// no-op-safe, so call sites need no guards.
func (mt *metrics) counter(s State) *obs.Counter {
	if mt == nil {
		return nil
	}
	switch s {
	case StateFailed:
		return mt.failed
	case StateCanceled:
		return mt.canceled
	default:
		return mt.done
	}
}

// progress folds an executor event into the job's status fields.
func (m *Manager) progress(j *job, ev Event) {
	m.mu.Lock()
	switch ev.Type {
	case EventExperimentStart:
		j.experiment = ev.Experiment
		j.done, j.total = 0, 0
	case EventCell:
		j.experiment = ev.Experiment
		j.done, j.total = ev.Done, ev.Total
	}
	m.mu.Unlock()
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
	for _, j := range canceled {
		j.state = StateCanceled
		j.finishedAt = now
		delete(m.live, j.hash)
	}
	m.mu.Unlock()
	m.logger().Info("draining", "canceled_jobs", len(canceled))
	for _, j := range canceled {
		m.met.counter(StateCanceled).Inc()
		m.logger().Info("job canceled",
			svclog.KeyJobID, j.id, svclog.KeySpecHash, j.hash,
			"queue_wait_s", now.Sub(j.submittedAt).Seconds())
		m.emit(Event{JobID: j.id, SpecHash: j.hash, Type: EventFinished, State: StateCanceled})
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
		if j.restored || j.startedAt.IsZero() || j.startedAt.After(to) {
			continue
		}
		if !j.finishedAt.IsZero() && j.finishedAt.Before(from) {
			break
		}
		out = append(out, j.id)
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
	switch j.state {
	case StateDone:
		res, hash := j.res, j.hash
		st := m.store
		m.mu.Unlock()
		if res.ManifestJSON != nil {
			return res.ManifestJSON, res.Address, nil
		}
		if b, addr, ok := st.Get(hash); ok {
			return b, addr, nil
		}
		return nil, "", fmt.Errorf("%w: evicted from run store", ErrNoManifest)
	case StateFailed:
		defer m.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %v", ErrNoManifest, j.err)
	case StateCanceled:
		defer m.mu.Unlock()
		return nil, "", fmt.Errorf("%w: canceled before execution", ErrNoManifest)
	default:
		m.mu.Unlock()
		return nil, "", ErrNotFinished
	}
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

func (m *Manager) statusLocked(j *job) Status {
	st := Status{
		ID:          j.id,
		State:       j.state,
		SpecHash:    j.hash,
		Spec:        j.sp,
		Experiment:  j.experiment,
		Done:        j.done,
		Total:       j.total,
		CacheHit:    j.cacheHit,
		Interrupted: j.interrupted,
		Restored:    j.restored,
		Address:     j.res.Address,
	}
	if !j.startedAt.IsZero() {
		st.QueueWaitS = j.startedAt.Sub(j.submittedAt).Seconds()
		if !j.finishedAt.IsZero() {
			st.ExecS = j.finishedAt.Sub(j.startedAt).Seconds()
		} else if j.state == StateRunning {
			// Still executing: echo the duration so far.
			st.ExecS = m.now().Sub(j.startedAt).Seconds()
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateQueued {
		for i, q := range m.queue {
			if q == j {
				st.QueuePos = i + 1
				break
			}
		}
	}
	return st
}
