package main

// `melody serve` wiring: the long-lived job service. The observatory
// server grows the job API (POST /runs and friends, see internal/jobs
// and internal/obs/serve); specs execute FIFO through the same
// melody.Execute the CLI uses, each on its own Engine with its own
// Telemetry, so a job's manifest is byte-identical to the manifest the
// equivalent `melody run` invocation writes. /metrics exposes only the
// observatory's self-registry here — per-job engine registries live in
// the jobs' manifests, never merged across jobs.

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/ledger"
	"github.com/moatlab/melody/internal/obs/serve"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// jobExecutor bridges the job manager onto melody.Execute: fresh
// telemetry per job, experiment-level progress forwarded as job
// events, and a status board for /progress published through cur.
// A canceled ctx yields a partial result with Interrupted set — the
// manager serves it but never caches it. Execute's lifecycle lines go
// through log pre-bound with the job id (recovered from the manager's
// context) so one job is traceable from POST to manifest.
func jobExecutor(cur *atomic.Pointer[melody.RunStatus], log *slog.Logger) jobs.Executor {
	if log == nil {
		log = svclog.Discard()
	}
	return func(ctx context.Context, sp spec.RunSpec, notify func(jobs.Event)) (jobs.ExecResult, error) {
		jlog := log
		if id := jobs.JobIDFrom(ctx); id != "" {
			jlog = jlog.With(svclog.KeyJobID, id)
		}
		tel := melody.NewTelemetry()
		status := melody.NewRunStatus(tel)
		status.Declare(sp.Experiments)
		cur.Store(status)

		out, err := melody.Execute(ctx, sp, melody.ExecHooks{
			Telemetry: tel,
			Log:       jlog,
			Event: func(ev jobs.Event) {
				status.Apply(ev)
				notify(ev)
			},
		})
		if err != nil {
			return jobs.ExecResult{}, err
		}
		status.Apply(jobs.Event{Type: jobs.EventRunEnd, Interrupted: out.Interrupted})
		raw, err := melody.EncodeManifest(*out.Manifest)
		if err != nil {
			return jobs.ExecResult{}, err
		}
		addr, err := out.Manifest.Address()
		if err != nil {
			return jobs.ExecResult{}, err
		}
		return jobs.ExecResult{ManifestJSON: raw, Address: addr, Interrupted: out.Interrupted}, nil
	}
}

// serveCmd implements `melody serve`.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address for the observatory + job API")
	queueCap := fs.Int("queue", jobs.DefaultQueueCap, "pending-run queue bound (full queue answers 429)")
	dataDir := fs.String("data-dir", "", "durable run ledger root (empty = in-memory history only; restarts forget runs)")
	logLevel := fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on <addr> (e.g. localhost:6060)")
	profEvery := fs.Duration("prof-interval", 0, "continuous host profiling cadence (0 = off; captures queryable at /profiles)")
	debugPprof := fs.Bool("debug-pprof", false, "mount /debug/pprof/* on the observatory itself")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "melody serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *profEvery < 0 {
		fmt.Fprintln(os.Stderr, "melody serve: -prof-interval must be positive")
		return 2
	}
	// The service plane logs at info by default — queue transitions,
	// access lines and drains are the operational record; -log-format
	// json feeds log pipelines (every line one JSON object on stderr).
	logger, err := svclog.New(os.Stderr, svclog.Options{Format: *logFormat, Level: *logLevel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "melody serve:", err)
		return 2
	}

	melody.RegisterWorkloads()

	// /progress tracks the job currently executing (the worker is
	// serial, so there is at most one).
	var cur atomic.Pointer[melody.RunStatus]

	mgr := jobs.New(jobExecutor(&cur, logger), *queueCap)
	mgr.Vet = melody.VetSpec
	mgr.Log = logger

	srv := serve.New(nil, func() any {
		if st := cur.Load(); st != nil {
			return st.Snapshot()
		}
		return struct{}{}
	})
	srv.SetLogger(logger)
	srv.AttachJobs(mgr)
	srv.DebugPprof = *debugPprof

	// -data-dir makes run history durable: completed manifests land in a
	// content-addressed ledger under <dir>/ledger, prior entries are
	// restored into the manager as finished jobs (so /runs, manifest
	// fetches and cache hits survive restarts byte-identically), and the
	// /compare + /baselines endpoints get their backing store. Opening
	// fails fast — a service asked to be durable must not silently run
	// volatile.
	if *dataDir != "" {
		led, err := ledger.Open(filepath.Join(*dataDir, "ledger"), ledger.Options{
			Registry: srv.SelfRegistry(),
			Log:      logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "melody serve:", err)
			return 2
		}
		defer led.Close()
		mgr.SetStore(led)
		restored := 0
		for _, e := range led.Entries() {
			if err := mgr.RestoreJob(e.SpecHash, e.Address, e.SpecJSON, e.StoredAt); err != nil {
				logger.Warn("ledger entry not restorable", svclog.KeySpecHash, e.SpecHash, "err", err)
				continue
			}
			restored++
		}
		srv.AttachLedger(led)
		logger.Info("run ledger open",
			"dir", filepath.Join(*dataDir, "ledger"),
			"restored", restored,
			"baselines", len(led.Baselines()),
		)
	}

	// The same -pprof the run subcommand takes: a standalone net/http/pprof
	// listener, failing fast on a bad address before any job is accepted.
	if *pprofAddr != "" {
		pp, err := serve.StartDebugPprof(*pprofAddr, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "melody serve:", err)
			return 2
		}
		defer pp.Close()
	}

	// -prof-interval attaches the continuous host profiler: interval and
	// job-start captures of the service process, stamped with the job ids
	// that ran during each round, queryable at /profiles. Instruments go
	// to the self-registry; per-job engine registries never see them, so
	// profiling cannot perturb any job's manifest. The server runs it
	// from Start until Close.
	if *profEvery > 0 {
		srv.AttachProfiler(hostprof.New(hostprof.Config{
			Interval:   *profEvery,
			Registry:   srv.SelfRegistry(),
			Log:        logger,
			JobsDuring: mgr.JobsDuring,
		}))
	}

	run, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "melody serve:", err)
		return 2
	}
	defer run.Close()
	logger.Info("job service ready",
		"url", "http://"+run.Addr().String()+"/",
		"queue_cap", mgr.QueueCap(),
	)

	// SIGINT/SIGTERM start the drain: admission stops (/readyz goes
	// 503), queued jobs are canceled, and the in-flight job finishes
	// gracefully — its executor sees the canceled context and flushes a
	// partial manifest marked "interrupted": true. Run returns once the
	// drain completes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mgr.Run(ctx)
	logger.Info("job service drained, shutting down")
	return 0
}
