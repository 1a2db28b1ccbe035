package melody

import (
	"sync"
	"sync/atomic"

	"github.com/moatlab/melody/internal/obs"
)

// RunStatus is the live view of an in-flight run that the observatory's
// /progress endpoint serves. Writers — the engine's progress callback
// and cmd/melody's experiment loop — rebuild an immutable experiment
// list under a mutex and publish it through an atomic pointer; readers
// load the pointer and never take the write lock, so a scraper polling
// /progress cannot delay a cell completion. Cache statistics and wall
// summaries are filled at read time from the Telemetry's atomics.
//
// Like Telemetry, RunStatus observes and never steers: it has no
// channel back into the engine, and a nil *RunStatus is a no-op on
// every method.
type RunStatus struct {
	tel *Telemetry

	mu    sync.Mutex
	order []string
	exps  map[string]*ExperimentProgress

	view atomic.Pointer[progressView]
}

// progressView is the immutable write-side snapshot.
type progressView struct {
	experiments []ExperimentProgress
	interrupted bool
	done        bool
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
	s.view.Store(&progressView{})
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

// BeginExperiment marks id running.
func (s *RunStatus) BeginExperiment(id, title string) {
	s.update(id, func(ep *ExperimentProgress) {
		ep.State = "running"
		if title != "" {
			ep.Title = title
		}
	})
}

// CellDone records batch progress within id (engine Progress shape).
func (s *RunStatus) CellDone(id string, done, total int) {
	s.update(id, func(ep *ExperimentProgress) {
		ep.State = "running"
		// Experiments submit several batches; keep the running maximum
		// per batch so a later, smaller batch never rolls progress back.
		if done >= ep.Done || total != ep.Total {
			ep.Done, ep.Total = done, total
		}
	})
}

// EndExperiment marks id done with its wall time.
func (s *RunStatus) EndExperiment(id string, wallS float64) {
	s.update(id, func(ep *ExperimentProgress) {
		ep.State = "done"
		ep.WallS = wallS
		if ep.Total > 0 {
			ep.Done = ep.Total
		}
	})
}

// Finish marks the whole run complete (or interrupted).
func (s *RunStatus) Finish(interrupted bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := *s.view.Load()
	v.done, v.interrupted = true, interrupted
	v.experiments = s.renderLocked()
	s.view.Store(&v)
}

// update applies fn to id's entry (creating it on first sight) and
// republishes the view.
func (s *RunStatus) update(id string, fn func(*ExperimentProgress)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.exps[id]
	if !ok {
		ep = &ExperimentProgress{ID: id, State: "pending"}
		s.exps[id] = ep
		s.order = append(s.order, id)
	}
	fn(ep)
	s.publishLocked()
}

// renderLocked copies the experiment list in declaration order.
func (s *RunStatus) renderLocked() []ExperimentProgress {
	out := make([]ExperimentProgress, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.exps[id])
	}
	return out
}

// publishLocked swaps in a fresh immutable view.
func (s *RunStatus) publishLocked() {
	old := s.view.Load()
	s.view.Store(&progressView{
		experiments: s.renderLocked(),
		interrupted: old.interrupted,
		done:        old.done,
	})
}

// Snapshot assembles the /progress payload: the atomically published
// experiment view plus live counter reads. Safe to call from any
// goroutine at any rate.
func (s *RunStatus) Snapshot() ProgressSnapshot {
	if s == nil {
		return ProgressSnapshot{Experiments: []ExperimentProgress{}}
	}
	v := s.view.Load()
	snap := ProgressSnapshot{
		Interrupted: v.interrupted,
		Done:        v.done,
		Experiments: v.experiments,
		CellsRun:    s.tel.CellsRun(),
		Cache:       s.tel.CacheStats(),
		CellWallMs:  s.tel.CellWallSummary(),
	}
	if snap.Experiments == nil {
		snap.Experiments = []ExperimentProgress{}
	}
	return snap
}
