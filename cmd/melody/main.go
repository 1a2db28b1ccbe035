// Command melody regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	melody list
//	melody run <experiment-id>... [flags]
//	melody run all [flags]
//	melody serve [-addr HOST:PORT] [-queue N] [-data-dir DIR] [-prof-interval D] [-pprof ADDR]
//
// `melody run` executes one spec and exits; `melody serve` is the
// long-lived experiment front door: it serves the observatory plus the
// job API (POST /runs accepts a RunSpec JSON body, GET /runs/{id}
// tracks it, GET /runs/{id}/manifest fetches the result) and executes
// queued specs FIFO through the same Execute path the CLI uses, so an
// API-submitted spec and the equivalent CLI invocation produce
// byte-identical manifests. SIGINT/SIGTERM drain: /readyz flips to 503,
// queued jobs are canceled, the in-flight job flushes its partial
// manifest with "interrupted": true, then the process exits.
//
// With -data-dir the service is durable: finished manifests land in a
// content-addressed ledger under <dir>/ledger, run history and cache
// hits survive restarts byte-identically, GET /compare?base=&head=
// diffs any two recorded runs (run ids or spec hashes), and baselines
// pinned via POST /baselines turn every completed run into an
// automatic regression check (melody_regressions_total on /metrics, a
// "regression" SSE event, and a structured warning in the log). The
// same flag on `melody run` records the CLI run into the same ledger,
// so CLI and API runs share one comparable history.
//
// Flags may appear before, between, or after experiment ids:
//
//	-workloads N      catalog subset size (0 = all 265; default 48)
//	-instructions N   measurement window per run (default 1200000)
//	-warmup N         warmup instructions per run (default 250000)
//	-duration NS      device-measurement duration in ns (default 200000)
//	-seed N           simulation seed (default 1)
//	-j N              parallel (workload, config) cells (0 = NumCPU)
//	-quiet            suppress live progress lines on stderr
//	-out DIR          also write each report to DIR/<id>.txt
//
// Observability flags (reports are byte-identical with or without them):
//
//	-metrics FILE     write the run manifest JSON: versions, seed,
//	                  per-experiment and per-cell wall times, and the
//	                  telemetry registry (cache outcomes, device latency
//	                  histograms with the CPMU-style breakdown)
//	-trace FILE       write Chrome trace-event JSON (experiment phases +
//	                  worker occupancy); open in https://ui.perfetto.dev
//	-sample-every N   sample CPU counters + CXL CPMU state every N
//	                  simulated cycles per cell; the streams land in the
//	                  -metrics manifest (timeseries) and as Perfetto
//	                  counter tracks in the -trace output
//	-profile DIR      write one simulated-time pprof profile per
//	                  experiment to DIR/<id>.pb.gz — stall-attributed
//	                  sim_cycles/sim_ns over synthetic stacks; implies
//	                  sampling (default cadence 20000 cycles). Inspect
//	                  with `go tool pprof -top DIR/<id>.pb.gz`
//	-pprof ADDR       serve net/http/pprof on ADDR (e.g. localhost:6060).
//	                  This profiles the simulator's *host* time; use
//	                  -profile for *simulated* time
//	-prof-interval D  continuous host profiling (requires -serve): capture
//	                  CPU/heap/goroutine/mutex/block profiles every D
//	                  (e.g. 30s) into a bounded in-memory store, queryable
//	                  at GET /profiles on the observatory and downloadable
//	                  per id as .pb.gz for `go tool pprof`. CPU samples
//	                  carry pprof labels (spec_hash, experiment), and the
//	                  anomaly watchdog fires tagged captures on goroutine
//	                  spikes, sustained heap growth, and GC-pause outliers
//	-serve ADDR       serve the live run observatory on ADDR:
//	                  GET /metrics   Prometheus text exposition of the
//	                                 telemetry registry (plus the
//	                                 observatory's own counters under a
//	                                 separate melody_observatory prefix)
//	                  GET /progress  JSON per-experiment done/total,
//	                                 cache hit rates, cell wall summary
//	                  GET /events    SSE stream of cell and experiment
//	                                 boundary events (bounded per-client
//	                                 queues; slow clients drop oldest)
//	                  GET /healthz   liveness probe
//
// Output paths are validated (and created) at flag-parse time so a
// typo fails before the simulation runs, not after.
//
// SIGINT/SIGTERM cancel the run gracefully: in-flight cells finish,
// no new cells start, and -metrics/-trace artifacts are still flushed
// with the manifest marked "interrupted": true (exit status 130).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/ledger"
	"github.com/moatlab/melody/internal/obs/serve"
	"github.com/moatlab/melody/internal/obs/svclog"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range melody.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
	case "run":
		os.Exit(runCmd(os.Args[2:]))
	case "serve":
		os.Exit(serveCmd(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: melody list | melody run <id>...|all [flags] | melody serve [flags]")
}

// parseRunArgs parses args against fs, allowing flags and positional
// experiment ids to interleave in any order (the standard flag package
// stops at the first positional, which used to make `melody run -j 8
// fig5` drop the ids after the flag — and `melody run fig5 -j 8` drop
// the flags after the id).
func parseRunArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	var ids []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			return ids, nil
		}
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workloads := fs.Int("workloads", 48, "catalog subset size (0 = all 265)")
	instructions := fs.Uint64("instructions", 0, "measurement window per run")
	warmup := fs.Uint64("warmup", 0, "warmup instructions per run")
	duration := fs.Float64("duration", 0, "device measurement duration (ns)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	workers := fs.Int("j", 0, "parallel (workload, config) cells (0 = NumCPU)")
	quiet := fs.Bool("quiet", false, "suppress live progress lines")
	outDir := fs.String("out", "", "also write each report to <dir>/<id>.txt")
	dataDir := fs.String("data-dir", "", "record the finished run in the durable ledger under <dir>/ledger")
	metricsPath := fs.String("metrics", "", "write the run-manifest/metrics JSON to <file>")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON (Perfetto) to <file>")
	sampleEvery := fs.Uint64("sample-every", 0, "sample counters + CPMU state every N simulated cycles (0 = off)")
	profileDir := fs.String("profile", "", "write per-experiment simulated-time pprof profiles to <dir>")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on <addr> (e.g. localhost:6060)")
	serveAddr := fs.String("serve", "", "serve the live observatory (/metrics /progress /events /healthz) on <addr>")
	profEvery := fs.Duration("prof-interval", 0, "continuous host profiling cadence (requires -serve; captures queryable at /profiles)")
	logLevel := fs.String("log-level", "warn", "structured log level on stderr: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")

	ids, err := parseRunArgs(fs, args)
	if err != nil {
		return 2
	}
	// The CLI defaults to warn so reports and live progress stay the
	// only routine output; -log-level info/debug opts into the run
	// lifecycle lines the service plane always emits.
	logger, err := svclog.New(os.Stderr, svclog.Options{Format: *logFormat, Level: *logLevel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "melody:", err)
		return 2
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "melody run: no experiments given (try `melody list`)")
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range melody.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	if err := validateOutputs(*metricsPath, *tracePath, *profileDir, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "melody:", err)
		return 2
	}

	// -data-dir opens the same durable ledger `melody serve -data-dir`
	// uses, before the simulation runs — a CLI run asked to be recorded
	// must fail now, not after a half-hour of simulation. The run itself
	// always executes (the ledger records results; it never answers the
	// CLI from cache — rerunning deliberately is the CLI's job).
	var led *ledger.Ledger
	if *dataDir != "" {
		var err error
		led, err = ledger.Open(filepath.Join(*dataDir, "ledger"), ledger.Options{Log: logger})
		if err != nil {
			fmt.Fprintln(os.Stderr, "melody:", err)
			return 2
		}
		defer led.Close()
	}
	if *profEvery != 0 && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "melody: -prof-interval requires -serve (captures are served at /profiles on the observatory)")
		return 2
	}
	if *profEvery < 0 {
		fmt.Fprintln(os.Stderr, "melody: -prof-interval must be positive")
		return 2
	}

	// The -pprof debug server profiles the simulator process itself
	// (host time). Listening is synchronous so a bad address fails now,
	// and the server closes after the run so no listener outlives it.
	// Both subcommands share this helper — the flag cannot drift again.
	if *pprofAddr != "" {
		pp, err := serve.StartDebugPprof(*pprofAddr, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "melody: pprof:", err)
			return 2
		}
		defer pp.Close()
		fmt.Fprintf(os.Stderr, "melody: pprof on http://%s/debug/pprof/\n", pp.Addr())
	}

	// -profile needs the cycle-sampled streams: force telemetry on and
	// default the cadence. Sampling never changes results.
	if *profileDir != "" && *sampleEvery == 0 {
		*sampleEvery = 20_000
	}

	// Flag parsing produces a RunSpec — the same versioned description
	// of the run the job API accepts — and Execute below is the same
	// entry point the job service calls, so CLI and API runs of one
	// spec are the same run.
	sp := spec.RunSpec{
		Version:           spec.Version,
		Experiments:       ids,
		Workloads:         *workloads,
		Instructions:      *instructions,
		Warmup:            *warmup,
		DurationNs:        *duration,
		SampleEveryCycles: *sampleEvery,
		Seed:              *seed,
		Workers:           *workers,
		Output:            spec.Output{Reports: true},
	}
	if err := melody.VetSpec(sp); err != nil {
		fmt.Fprintln(os.Stderr, "melody:", err)
		return 1
	}

	// -data-dir records the run's manifest, so it needs telemetry on
	// exactly like -metrics does (the ledger stores the same bytes the
	// job service would).
	var tel *melody.Telemetry
	if *metricsPath != "" || *tracePath != "" || *profileDir != "" || *serveAddr != "" || *dataDir != "" {
		tel = melody.NewTelemetry()
		if *tracePath != "" {
			tel.Trace = obs.NewTrace()
		}
	}

	// The observatory serves live state over HTTP while the engine runs;
	// it reads observation-side snapshots only, so attaching it cannot
	// change results or the manifest.
	var obsv *observatory
	if *serveAddr != "" {
		obsv, err = startObservatory(*serveAddr, tel, ids, logger, *profEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "melody: serve:", err)
			return 2
		}
		defer obsv.close()
	}

	progressing := false
	clearProgress := func() {
		if progressing {
			fmt.Fprintf(os.Stderr, "\r%s\r", strings.Repeat(" ", 40))
			progressing = false
		}
	}
	var outErr error
	hooks := melody.ExecHooks{
		Telemetry: tel,
		Log:       logger,
		Event: func(ev jobs.Event) {
			obsv.publish(ev)
			switch {
			case ev.Type == jobs.EventCell && !*quiet:
				fmt.Fprintf(os.Stderr, "\r%-8s %d/%d cells", ev.Experiment, ev.Done, ev.Total)
				progressing = true
			case ev.Type == jobs.EventExperimentEnd:
				clearProgress()
			}
		},
		ReportDone: func(id string, rep *melody.Report, wallS float64) {
			fmt.Println(rep.String())
			fmt.Printf("(%s in %.1fs)\n\n", id, wallS)
			if *outDir != "" && outErr == nil {
				if outErr = os.MkdirAll(*outDir, 0o755); outErr != nil {
					return
				}
				outErr = os.WriteFile(filepath.Join(*outDir, id+".txt"), []byte(rep.String()), 0o644)
			}
		},
	}

	// SIGINT/SIGTERM cancel the run context: the runner finishes cells
	// already executing but refuses to start new ones, and the artifact
	// flush below still happens — a partial manifest marked
	// "interrupted" beats no manifest after a half-hour run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := melody.Execute(ctx, sp, hooks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "melody:", err)
		return 1
	}
	if out.Interrupted {
		fmt.Fprintln(os.Stderr, "melody: interrupted; flushing partial artifacts")
	}
	obsv.publish(jobs.Event{Type: jobs.EventRunEnd, Interrupted: out.Interrupted})
	if outErr != nil {
		fmt.Fprintln(os.Stderr, "melody:", outErr)
		return 1
	}

	if *metricsPath != "" {
		if err := melody.WriteManifest(*metricsPath, *out.Manifest); err != nil {
			fmt.Fprintln(os.Stderr, "melody: metrics:", err)
			return 1
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, tel.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "melody: trace:", err)
			return 1
		}
	}
	if *profileDir != "" {
		if err := writeProfiles(*profileDir, tel); err != nil {
			fmt.Fprintln(os.Stderr, "melody: profile:", err)
			return 1
		}
	}
	// Record the completed run in the ledger — manifest bytes under
	// their content address, keyed by the canonical spec hash, exactly
	// as the job service stores API runs, so a later `melody serve
	// -data-dir` over the same directory answers this spec from cache
	// and can diff against it. Partial (interrupted) runs are never
	// recorded: a cache must not answer with half a result.
	if led != nil && !out.Interrupted {
		if err := recordRun(led, sp, out.Manifest); err != nil {
			fmt.Fprintln(os.Stderr, "melody: ledger:", err)
			return 1
		}
	}
	if out.Interrupted {
		return 130
	}
	return 0
}

// recordRun writes one finished manifest into the durable ledger under
// the same identities the job service uses (spec hash → manifest
// address), with "cli" in the job-id column so /runs provenance shows
// where the entry came from.
func recordRun(led *ledger.Ledger, sp spec.RunSpec, m *melody.Manifest) error {
	raw, err := melody.EncodeManifest(*m)
	if err != nil {
		return err
	}
	addr, err := m.Address()
	if err != nil {
		return err
	}
	hash, err := sp.Hash()
	if err != nil {
		return err
	}
	specJSON, err := spec.Encode(sp)
	if err != nil {
		return err
	}
	return led.Put(hash, addr, raw, specJSON, "cli")
}
