package melody

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs/svclog"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

// This file is the one execution path behind every melody front end.
// The CLI parses flags into a spec.RunSpec; the job API decodes one
// from a POST body; both hand it to Execute. Keeping a single entry
// point is what makes the acceptance contract hold: an API-submitted
// spec and the equivalent CLI invocation run the same engine the same
// way and produce byte-identical manifests (equal content addresses).

// ExecHooks observes an Execute call. Every field is optional; hooks
// are called from the executing goroutine (cell events from the
// engine's serialized progress path) and must not block for long.
type ExecHooks struct {
	// Telemetry, when set, is attached to the engine and used to build
	// the outcome's Manifest. A nil Telemetry runs without observation
	// and without a manifest — the CLI's fast path when no artifact or
	// serving flag asked for one.
	Telemetry *Telemetry

	// Event receives the run's lifecycle events: experiment_start
	// (with the title) and experiment_end (with the wall time) bracket
	// each experiment, and cell events report its progress in between.
	// experiment_end fires even when the run was interrupted during the
	// experiment. Execute emits no run_end: the caller knows the
	// outcome and closes its own stream.
	Event func(jobs.Event)

	// ReportDone delivers each completed experiment's report in spec
	// order; interrupted experiments never reach it.
	ReportDone func(id string, rep *Report, wallS float64)

	// Log, when set, receives structured run/experiment lifecycle lines,
	// each stamped with the spec's content hash. The job service passes
	// a logger pre-bound with job_id so one job's execution lines join
	// its queue-transition lines; nil is silent. Logging is pure
	// observation: manifests are byte-identical with and without it.
	Log *slog.Logger
}

// ExecOutcome is what one spec execution produced.
type ExecOutcome struct {
	// Spec is the normalized spec that ran.
	Spec spec.RunSpec
	// Reports holds one report per completed experiment, in spec order.
	Reports []*Report
	// Timings mirrors Reports with wall times.
	Timings []ExperimentTiming
	// Interrupted marks a run cut short by context cancellation; the
	// outcome (and manifest) covers only the completed prefix.
	Interrupted bool
	// Manifest is the run manifest, built when Telemetry was attached
	// (nil otherwise). Its SpecHash is the spec's content address.
	Manifest *Manifest
}

// ResolveSpec normalizes and validates sp and resolves its experiment
// ids against the registry, returning the experiments in spec order.
func ResolveSpec(sp spec.RunSpec) (spec.RunSpec, []Experiment, error) {
	n := sp.Normalized()
	if err := n.Validate(); err != nil {
		return n, nil, err
	}
	exps := make([]Experiment, 0, len(n.Experiments))
	for _, id := range n.Experiments {
		e, ok := ExperimentByID(id)
		if !ok {
			return n, nil, fmt.Errorf("unknown experiment %q (try `melody list`)", id)
		}
		exps = append(exps, e)
	}
	return n, exps, nil
}

// VetSpec reports whether sp could execute: structurally valid and
// every experiment id registered. The job queue uses it as its
// admission check so a doomed spec is rejected at POST time, not
// discovered as a failed job.
func VetSpec(sp spec.RunSpec) error {
	_, _, err := ResolveSpec(sp)
	return err
}

// Execute runs sp to completion (or to ctx cancellation) on a fresh
// Engine and returns the outcome. Cancellation is graceful and mirrors
// the CLI's SIGINT behaviour: in-flight cells finish, no new work
// starts, and the outcome — including a partial manifest flagged
// Interrupted — covers everything that completed. Execute returns an
// error only for specs that cannot run at all (invalid, unknown ids);
// an interrupted run is a valid outcome, not an error.
func Execute(ctx context.Context, sp spec.RunSpec, h ExecHooks) (ExecOutcome, error) {
	n, exps, err := ResolveSpec(sp)
	if err != nil {
		return ExecOutcome{}, err
	}
	RegisterWorkloads()

	log := h.Log
	if log == nil {
		log = svclog.Discard()
	}
	if h.Event == nil {
		h.Event = func(jobs.Event) {}
	}
	// The spec hash is the run's identity everywhere (manifest SpecHash,
	// job store key, log correlation); compute it once up front.
	hash, hashErr := n.Hash()
	// When the caller's ctx carries an active span (the job worker's
	// exec span, or any traced entry point), the whole run becomes a
	// child span and each experiment below it another; with only a
	// Trace attached the run span is the root. Purely observational,
	// like the log lines: with neither, every tracespan call is a nil
	// no-op.
	ctx, runSpan := h.Telemetry.startSpan(ctx, "run",
		tracespan.String(svclog.KeySpecHash, hash),
		tracespan.String("experiments", fmt.Sprint(len(exps))),
	)
	defer runSpan.End()
	log.Info("run started",
		svclog.KeySpecHash, hash,
		"experiments", len(exps),
		"workloads", n.Workloads,
		"workers", n.Workers,
		"seed", n.Seed,
	)

	eng := NewEngine(Options{
		MaxWorkloads:      n.Workloads,
		Instructions:      n.Instructions,
		Warmup:            n.Warmup,
		DurationNs:        n.DurationNs,
		SampleEveryCycles: n.SampleEveryCycles,
		Seed:              n.Seed,
	})
	eng.Workers = n.Workers
	eng.Obs = h.Telemetry
	eng.Event = h.Event

	out := ExecOutcome{Spec: n}
	// Run under a spec_hash pprof label: host CPU profiles captured while
	// this run executes (internal/obs/hostprof) attribute its samples to
	// the spec, alongside the job_id label the job worker already set.
	// Labels are inherited by every goroutine the engine spawns inside
	// this scope; like the log lines, they are pure observation.
	pprof.Do(ctx, pprof.Labels(svclog.KeySpecHash, hash), func(ctx context.Context) {
		for _, e := range exps {
			if ctx.Err() != nil {
				out.Interrupted = true
				runSpan.SetAttr("interrupted", "true")
				break
			}
			h.Event(jobs.Event{Type: jobs.EventExperimentStart, Experiment: e.ID, Title: e.Title})
			log.Debug("experiment started", svclog.KeySpecHash, hash, "experiment", e.ID, "title", e.Title)
			start := time.Now()
			rep := eng.Run(ctx, e)
			wallS := time.Since(start).Seconds()
			h.Event(jobs.Event{Type: jobs.EventExperimentEnd, Experiment: e.ID, WallS: wallS})
			log.Info("experiment finished",
				svclog.KeySpecHash, hash, "experiment", e.ID,
				"wall_s", wallS, "interrupted", ctx.Err() != nil)
			if ctx.Err() != nil {
				// The experiment was cut mid-flight: its report covers an
				// arbitrary prefix of its cells, so it is not recorded.
				out.Interrupted = true
				runSpan.SetAttr("interrupted", "true")
				break
			}
			out.Reports = append(out.Reports, rep)
			out.Timings = append(out.Timings, ExperimentTiming{ID: e.ID, WallS: wallS})
			if h.ReportDone != nil {
				h.ReportDone(e.ID, rep, wallS)
			}
		}
	})

	if h.Telemetry != nil {
		m := BuildManifest(n.Seed, n.Workers, n.Workloads, out.Timings, h.Telemetry)
		m.Interrupted = out.Interrupted
		if hashErr == nil {
			m.SpecHash = hash
		}
		out.Manifest = &m
	}
	log.Info("run finished",
		svclog.KeySpecHash, hash,
		"experiments_completed", len(out.Reports),
		"interrupted", out.Interrupted,
	)
	return out, nil
}
