package melody

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"github.com/moatlab/melody/internal/obs/tracespan"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

// Engine executes experiments over a pool of shared, per-platform
// Runners. Sharing the runners across experiments means a figure never
// recomputes a (workload, config) cell another figure already measured
// — in particular the local-DRAM baselines every slowdown needs — and
// the singleflight cache keeps that true when cells are requested
// concurrently.
type Engine struct {
	// Opts scales every experiment the engine runs.
	Opts Options

	// Workers bounds cell-level concurrency (0 = NumCPU).
	Workers int

	// Progress, when set, observes batch execution: it is called as
	// cells of an experiment's declared set complete. Calls are
	// serialized by the engine.
	Progress func(experimentID string, done, total int)

	// Obs, when set, collects run telemetry (metrics registry, trace
	// spans, per-cell timings) across every runner the engine creates.
	// Set it before the first Run; observation never changes results.
	Obs *Telemetry

	mu         sync.Mutex
	runners    map[string]*Runner
	progressMu sync.Mutex
}

// NewEngine returns an engine executing experiments under o.
func NewEngine(o Options) *Engine {
	return &Engine{Opts: o, runners: map[string]*Runner{}}
}

// Run executes one experiment to completion.
func (g *Engine) Run(ctx context.Context, e Experiment) *Report {
	RegisterWorkloads()
	g.Obs.beginExperiment(e.ID)
	// The experiment span is a child of Execute's run span (or a root,
	// with only a Trace attached) and the parent of the Runner's cell
	// spans; untraced, it is a nil no-op.
	ctx, sp := g.Obs.startSpan(ctx, "experiment",
		tracespan.String("experiment", e.ID))
	// The experiment id becomes a pprof label for the scope of this
	// experiment — worker goroutines spawned by runAll inherit it, so a
	// host CPU capture overlapping the run splits by figure
	// (`go tool pprof -tagfocus experiment=fig8f`). One Do per
	// experiment, nothing on the per-cell path: the simulate loop stays
	// allocation-free with profiling off (pinned in tracing_test.go).
	var rep *Report
	pprof.Do(ctx, pprof.Labels("experiment", e.ID), func(ctx context.Context) {
		rep = e.Run(g.context(ctx, e.ID))
	})
	sp.End()
	if g.Obs != nil {
		g.Obs.Registry.Counter("engine/experiments_run").Inc()
	}
	return rep
}

// RunByID executes a registered experiment.
func (g *Engine) RunByID(ctx context.Context, id string) (*Report, bool) {
	e, ok := ExperimentByID(id)
	if !ok {
		return nil, false
	}
	return g.Run(ctx, e), true
}

// context builds the per-experiment ExperimentContext.
func (g *Engine) context(ctx context.Context, id string) *ExperimentContext {
	return &ExperimentContext{eng: g, ctx: ctx, id: id, Opts: g.Opts}
}

// runner returns the shared Runner for p, creating it on first use.
func (g *Engine) runner(p platform.Platform) *Runner {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.runners[p.CPU.Name]; ok {
		return r
	}
	r := g.newRunner(p)
	g.runners[p.CPU.Name] = r
	return r
}

// newRunner builds a Runner honouring the engine's options.
func (g *Engine) newRunner(p platform.Platform) *Runner {
	o := g.Opts
	r := NewRunner(p)
	r.Seed = o.seed()
	r.Workers = g.Workers
	r.Obs = g.Obs
	if o.Instructions > 0 {
		r.Instructions = o.Instructions
	}
	if o.Warmup > 0 {
		r.Warmup = o.Warmup
	}
	r.SampleEveryCycles = o.SampleEveryCycles
	return r
}

// report forwards batch progress to the engine's observer.
func (g *Engine) report(id string, done, total int) {
	if g.Progress == nil {
		return
	}
	g.progressMu.Lock()
	g.Progress(id, done, total)
	g.progressMu.Unlock()
}

// ExperimentContext is what every experiment receives: the experiment's
// options plus access to the engine's shared runners, batch submission
// with progress reporting, and the run's cancellation context.
type ExperimentContext struct {
	eng  *Engine
	ctx  context.Context
	id   string
	Opts Options
}

// Context returns the run's cancellation context.
func (ec *ExperimentContext) Context() context.Context { return ec.ctx }

// Runner returns the engine-shared Runner for p: results are memoized
// across every experiment the engine runs. Experiments that mutate
// runner knobs (sampling interval, prefetchers) or register impure
// MemConfigs must use IsolatedRunner instead.
func (ec *ExperimentContext) Runner(p platform.Platform) *Runner {
	return ec.eng.runner(p)
}

// IsolatedRunner returns a fresh private Runner for p, configured from
// the experiment's options but sharing no cache with other experiments.
func (ec *ExperimentContext) IsolatedRunner(p platform.Platform) *Runner {
	return ec.eng.newRunner(p)
}

// Declare submits an experiment's full cell set for parallel execution
// on r, reporting progress as cells complete. Results land in r's cache,
// so the experiment's subsequent Run/Slowdown calls are pure lookups;
// declaring up front is what lets a figure's whole grid run wide instead
// of serializing on its reporting order.
func (ec *ExperimentContext) Declare(r *Runner, cells []RunRequest) error {
	total := len(cells)
	var done atomic.Int64
	_, err := r.runAll(ec.ctx, cells, func() {
		ec.eng.report(ec.id, int(done.Add(1)), total)
	})
	return err
}

// Run executes (or fetches) one cell on r under the experiment's
// cancellation context. A canceled run yields the zero
// Result; the engine loop discards the interrupted experiment's
// report, so partial figures never escape.
func (ec *ExperimentContext) Run(r *Runner, spec workload.Spec, mc MemConfig) Result {
	res, _ := r.RunCtx(ec.ctx, RunRequest{Spec: spec, Config: mc})
	return res
}

// Slowdown measures one workload's slowdown on target vs the local
// baseline under the experiment's context.
func (ec *ExperimentContext) Slowdown(r *Runner, spec workload.Spec, target MemConfig) float64 {
	out, err := r.SlowdownCtx(ec.ctx, spec, target)
	if err != nil {
		return 0
	}
	return out
}

// Slowdowns evaluates specs against target on r under the experiment's
// context.
// Experiments Declare their full cell set up front, so these calls are
// normally pure cache lookups; Slowdowns therefore does not re-declare.
func (ec *ExperimentContext) Slowdowns(r *Runner, specs []workload.Spec, target MemConfig) []float64 {
	out, err := r.SlowdownsCtx(ec.ctx, specs, target)
	if err != nil {
		return make([]float64, len(specs))
	}
	return out
}
