package main

// -serve wiring: the observatory runs an HTTP server concurrently with
// the engine, fed entirely from observation-side state (the telemetry
// registry, a RunStatus board, an event hub). Nothing here has a
// channel back into the engine, which is how the manifest stays
// byte-identical with and without -serve — pinned by
// TestServeDoesNotPerturbManifest.

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/serve"
)

// observatory bundles the run's live-view state. A nil *observatory is
// a no-op on every method, so the engine loop calls it unconditionally.
type observatory struct {
	status   *melody.RunStatus
	hub      *serve.Hub
	run      *serve.Running
	start    time.Time
	stopProf context.CancelFunc
	profDone chan struct{}
}

// startObservatory declares the run plan on a fresh status board and
// starts the observatory server on addr. Listen errors surface
// synchronously — a bad -serve address fails before the run starts.
// log receives the server's access/panic/listener lines (nil = silent).
// profEvery > 0 attaches the continuous host profiler at that cadence:
// captures land in an in-memory store queryable at /profiles, recorded
// against the observatory self-registry so the engine registry — and
// therefore the manifest — never sees the profiler.
func startObservatory(addr string, tel *melody.Telemetry, ids []string, log *slog.Logger, profEvery time.Duration) (*observatory, error) {
	status := melody.NewRunStatus(tel)
	titles := make([]string, len(ids))
	for i, id := range ids {
		if e, ok := melody.ExperimentByID(id); ok {
			titles[i] = e.Title
		}
	}
	status.Declare(ids, titles)

	srv := serve.New(tel.Registry, func() any { return status.Snapshot() })
	srv.SetLogger(log)
	if tel.Trace != nil {
		// Mirror completed request spans onto the run's Perfetto trace:
		// service spans render as their own process row beside the
		// engine's run/experiment/cell tracks (pid 1).
		srv.Tracer().SetMirror(tel.Trace, 3)
		tel.Trace.SetProcessName(3, "service spans")
	}
	var prof *hostprof.Profiler
	if profEvery > 0 {
		prof = hostprof.New(hostprof.Config{
			Interval: profEvery,
			Registry: srv.SelfRegistry(),
			Log:      log,
		})
		srv.AttachProfiler(prof)
	}
	run, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	o := &observatory{status: status, hub: srv.Hub(), run: run, start: time.Now()}
	if prof != nil {
		ctx, cancel := context.WithCancel(context.Background())
		o.stopProf = cancel
		o.profDone = make(chan struct{})
		go func() { prof.Run(ctx); close(o.profDone) }()
	}
	fmt.Fprintf(os.Stderr, "melody: observatory on http://%s/ (/metrics /progress /events /healthz)\n", run.Addr())
	return o, nil
}

// atMs stamps an event with host milliseconds since the run began.
func (o *observatory) atMs() int64 { return time.Since(o.start).Milliseconds() }

// experimentStart marks id running and publishes the boundary event.
func (o *observatory) experimentStart(id, title string) {
	if o == nil {
		return
	}
	o.status.BeginExperiment(id, title)
	o.hub.Publish(serve.Event{Type: serve.EventExperimentStart, AtMs: o.atMs(), Experiment: id, Title: title})
}

// cell records batch progress and publishes a cell event.
func (o *observatory) cell(id string, done, total int) {
	if o == nil {
		return
	}
	o.status.CellDone(id, done, total)
	o.hub.Publish(serve.Event{Type: serve.EventCell, AtMs: o.atMs(), Experiment: id, Done: done, Total: total})
}

// experimentEnd marks id done with its wall time.
func (o *observatory) experimentEnd(id string, wallS float64) {
	if o == nil {
		return
	}
	o.status.EndExperiment(id, wallS)
	o.hub.Publish(serve.Event{Type: serve.EventExperimentEnd, AtMs: o.atMs(), Experiment: id, WallS: wallS})
}

// finish marks the run complete (or interrupted) and publishes the
// final event; /progress keeps serving the terminal snapshot until
// close, so a dashboard sees the run end rather than a dropped socket.
func (o *observatory) finish(interrupted bool) {
	if o == nil {
		return
	}
	o.status.Finish(interrupted)
	o.hub.Publish(serve.Event{Type: serve.EventRunEnd, AtMs: o.atMs(), Interrupted: interrupted})
}

// close stops the profiler loop (waiting for an in-flight capture
// window to drain) and shuts the HTTP server down.
func (o *observatory) close() {
	if o == nil {
		return
	}
	if o.stopProf != nil {
		o.stopProf()
		<-o.profDone
	}
	if o.run != nil {
		o.run.Close()
	}
}
