package melody

import (
	"sync"
	"sync/atomic"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs"
)

// RunStatus is the live view of an in-flight run that the observatory's
// /progress endpoint serves. Its writer, Apply, folds each of the run's
// lifecycle events into an immutable experiment list under a mutex and
// publishes it through an atomic pointer; readers
// load the pointer and never take the write lock, so a scraper polling
// /progress cannot delay a cell completion. Cache statistics and wall
// summaries are filled at read time from the Telemetry's atomics.
//
// Like Telemetry, RunStatus observes and never steers: it has no
// channel back into the engine, and a nil *RunStatus is a no-op on
// every method.
type RunStatus struct {
	tel *Telemetry

	mu                sync.Mutex
	order             []string
	exps              map[string]*ExperimentProgress
	done, interrupted bool

	// view holds the write side of the /progress payload; Snapshot
	// fills in the live counters.
	view atomic.Pointer[ProgressSnapshot]
}

// ExperimentProgress is one experiment's place in the run plan.
type ExperimentProgress struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// State is "pending", "running" or "done".
	State string  `json:"state"`
	Done  int     `json:"done"`
	Total int     `json:"total"`
	WallS float64 `json:"wall_s,omitempty"`
}

// ProgressSnapshot is the /progress JSON payload.
type ProgressSnapshot struct {
	Interrupted bool                 `json:"interrupted"`
	Done        bool                 `json:"done"`
	Experiments []ExperimentProgress `json:"experiments"`
	CellsRun    uint64               `json:"cells_run"`
	Cache       CacheStats           `json:"cache"`
	// CellWallMs digests host wall time per computed cell.
	CellWallMs obs.Summary `json:"cell_wall_ms"`
}

// NewRunStatus returns a status board reading live counters from tel
// (which may be nil).
func NewRunStatus(tel *Telemetry) *RunStatus {
	s := &RunStatus{tel: tel, exps: map[string]*ExperimentProgress{}}
	s.publishLocked()
	return s
}

// Declare records the run plan up front so /progress can show pending
// experiments, with their registered titles, before they start.
func (s *RunStatus) Declare(ids []string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if _, ok := s.exps[id]; ok {
			continue
		}
		ep := &ExperimentProgress{ID: id, State: "pending"}
		if e, ok := ExperimentByID(id); ok {
			ep.Title = e.Title
		}
		s.exps[id] = ep
		s.order = append(s.order, id)
	}
	s.publishLocked()
}

// Apply folds one lifecycle event into the board: experiment_start
// marks its experiment running, cell records batch progress,
// experiment_end marks it done with its wall time, and run_end marks
// the whole run complete (or interrupted). Other types are ignored.
func (s *RunStatus) Apply(ev jobs.Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case jobs.EventRunEnd:
		s.done, s.interrupted = true, ev.Interrupted
	case jobs.EventExperimentStart, jobs.EventCell, jobs.EventExperimentEnd:
		ep, ok := s.exps[ev.Experiment]
		if !ok {
			ep = &ExperimentProgress{ID: ev.Experiment}
			s.exps[ev.Experiment] = ep
			s.order = append(s.order, ev.Experiment)
		}
		ep.State = "running"
		switch ev.Type {
		case jobs.EventExperimentStart:
			if ev.Title != "" {
				ep.Title = ev.Title
			}
		case jobs.EventCell:
			// Experiments submit several batches; keep the running maximum
			// per batch so a later, smaller batch never rolls progress back.
			if ev.Done >= ep.Done || ev.Total != ep.Total {
				ep.Done, ep.Total = ev.Done, ev.Total
			}
		case jobs.EventExperimentEnd:
			ep.State = "done"
			ep.WallS = ev.WallS
			if ep.Total > 0 {
				ep.Done = ep.Total
			}
		}
	default:
		return
	}
	s.publishLocked()
}

// publishLocked swaps in a fresh immutable view of the board, its
// experiments in declaration order.
func (s *RunStatus) publishLocked() {
	v := &ProgressSnapshot{Interrupted: s.interrupted, Done: s.done,
		Experiments: make([]ExperimentProgress, 0, len(s.order))}
	for _, id := range s.order {
		v.Experiments = append(v.Experiments, *s.exps[id])
	}
	s.view.Store(v)
}

// Snapshot assembles the /progress payload: the atomically published
// experiment view plus live counter reads. Safe to call from any
// goroutine at any rate.
func (s *RunStatus) Snapshot() ProgressSnapshot {
	if s == nil {
		return ProgressSnapshot{Experiments: []ExperimentProgress{}}
	}
	snap := *s.view.Load()
	snap.CellsRun = s.tel.CellsRun()
	snap.Cache = s.tel.CacheStats()
	snap.CellWallMs = s.tel.CellWallSummary()
	return snap
}
