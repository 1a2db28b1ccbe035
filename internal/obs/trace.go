package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace is a sink for completed wall-clock spans and counter samples,
// rendered in the Chrome trace-event format (the JSON-object flavour:
// {"traceEvents": [...]}), which loads directly in Perfetto
// (ui.perfetto.dev) and chrome://tracing. It has no live spans: spans
// are recorded by tracespan, whose tracer mirror hands each completed
// one to CompleteAt, and the sampler adds counter tracks via CounterAt.
// All methods are safe for concurrent use, and every method on a nil
// *Trace is a no-op, so call sites record unconditionally.
//
// Timestamps are microseconds of wall time since the trace was created.
// Traces observe the engine, not the simulation: simulated nanoseconds
// never appear here, and recording never feeds back into results.
type Trace struct {
	mu     sync.Mutex
	t0     time.Time
	events []Event
	procs  map[int]string
}

// Event is one Chrome trace event. Ph "X" is a complete span (Ts+Dur),
// "C" a counter sample, "M" metadata (process names).
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTrace returns a trace whose timestamps count from now.
func NewTrace() *Trace {
	return &Trace{t0: time.Now(), procs: map[int]string{}}
}

func (t *Trace) add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// SetProcessName names a pid's track group. Idempotent.
func (t *Trace) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// CompleteAt records an already-completed span with explicit
// wall-clock bounds, placed in the trace's timestamp space via the
// same clock StampUs uses. It is the only way spans enter a trace:
// tracespan's tracer mirror renders every completed span here, so the
// engine's run/experiment/cell spans and the service plane's request
// spans line up with the sampler's counter tracks in one Perfetto view.
// Spans that began before the trace did get negative timestamps, which
// Perfetto renders fine.
func (t *Trace) CompleteAt(pid, tid int, name, cat string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	ts := t.StampUs(start)
	t.add(Event{Name: name, Cat: cat, Ph: "X", Ts: ts,
		Dur: t.StampUs(end) - ts, Pid: pid, Tid: tid, Args: args})
}

// CounterAt records a counter-track sample at an explicit trace
// timestamp (microseconds since trace start). Chrome "C" events render
// in Perfetto as per-process counter tracks: each distinct name under a
// pid becomes its own plotted series. The timestamp is not a wall-clock
// instant: counter samples describe simulated time mapped into the
// trace's clock, not the moment of recording.
func (t *Trace) CounterAt(pid int, name string, tsUs, value float64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: "C", Ts: tsUs, Pid: pid,
		Args: map[string]any{"value": value}})
}

// StampUs converts a wall-clock instant into this trace's timestamp
// space (microseconds since trace start), letting callers place
// explicitly-timed events (CounterAt) relative to recorded spans.
func (t *Trace) StampUs(at time.Time) float64 {
	if t == nil {
		return 0
	}
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// Len returns the number of recorded events (metadata excluded).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// tracePayload is the emitted top-level object.
type tracePayload struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// snapshot assembles the full event list: name metadata first (sorted
// for determinism), then events in recording order.
func (t *Trace) snapshot() tracePayload {
	p := tracePayload{TraceEvents: []Event{}, DisplayTimeUnit: "ms"}
	if t == nil {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pids := make([]int, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p.TraceEvents = append(p.TraceEvents, Event{Name: "process_name", Ph: "M",
			Pid: pid, Args: map[string]any{"name": t.procs[pid]}})
	}
	p.TraceEvents = append(p.TraceEvents, t.events...)
	return p
}

// MarshalJSON emits the Chrome trace-event JSON object.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.snapshot())
}

// WriteJSON writes the trace to w as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.snapshot())
}
