package main

// -serve wiring: the observatory runs an HTTP server concurrently with
// the engine, fed entirely from observation-side state (the telemetry
// registry, a RunStatus board, an event hub). Nothing here has a
// channel back into the engine, which is how the manifest stays
// byte-identical with and without -serve — pinned by
// TestServeDoesNotPerturbManifest.

import (
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/serve"
)

// observatory bundles the run's live-view state. A nil *observatory is
// a no-op on every method, so the engine loop calls it unconditionally.
type observatory struct {
	status *melody.RunStatus
	hub    *serve.Hub
	run    *serve.Running
	start  time.Time
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
	status.Declare(ids)

	srv := serve.New(tel.Registry, func() any { return status.Snapshot() })
	srv.SetLogger(log)
	if tel.Trace != nil {
		// Mirror completed request spans onto the run's Perfetto trace:
		// service spans render as their own process row beside the
		// engine's run/experiment/cell tracks (pid 1).
		srv.Tracer().SetMirror(tel.Trace, 3)
		tel.Trace.SetProcessName(3, "service spans")
	}
	if profEvery > 0 {
		srv.AttachProfiler(hostprof.New(hostprof.Config{
			Interval: profEvery,
			Registry: srv.SelfRegistry(),
			Log:      log,
		}))
	}
	run, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	o := &observatory{status: status, hub: srv.Hub(), run: run, start: time.Now()}
	fmt.Fprintf(os.Stderr, "melody: observatory on http://%s/ (/metrics /progress /events /healthz)\n", run.Addr())
	return o, nil
}

// publish folds ev into the status board and fans it out on /events,
// stamped with host milliseconds since the run began. After run_end,
// /progress keeps serving the terminal snapshot until close, so a
// dashboard sees the run end rather than a dropped socket.
func (o *observatory) publish(ev jobs.Event) {
	if o == nil {
		return
	}
	o.status.Apply(ev)
	ev.AtMs = time.Since(o.start).Milliseconds()
	o.hub.Publish(ev)
}

// close gives each /events client up to a second to receive its stream
// through run_end, where the stream ends and the client unsubscribes;
// then it stops the profiler loop (waiting for an in-flight capture
// window to drain) and shuts the HTTP server down.
func (o *observatory) close() {
	if o == nil {
		return
	}
	for deadline := time.Now().Add(time.Second); o.hub.Subscribers() > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	o.run.Close()
}
