package melody

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

// Trace track layout: the engine's run, experiment and cell spans
// render as one process, with each cell on its worker's thread track
// (the occupancy timeline) and run/experiment spans on track 0.
// Sampled cells get one process each, numbered upward from
// tracePidSamples, holding that cell's counter tracks.
const (
	tracePidEngine  = 1
	tracePidSamples = 100
)

// CellTiming is one executed cell's engine-side cost, collected for the
// -metrics run manifest. WallMs is host wall time, not simulated time.
type CellTiming struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Platform string  `json:"platform"`
	Seed     uint64  `json:"seed"`
	WallMs   float64 `json:"wall_ms"`
}

// Telemetry aggregates engine observability: a Registry of counters and
// histograms (cache outcomes, per-cell wall times, per-config device
// latency breakdowns), an optional Trace, and the per-cell timing log.
// Attach one to an Engine (or Runner) to enable collection; a nil
// *Telemetry disables everything at the cost of a nil check.
//
// Spans are recorded by tracespan alone. When the caller's ctx carries
// a span, the run, experiment and cell spans join its trace; otherwise,
// with a Trace set, they root on a store-less tracer owned by the
// Telemetry whose mirror writes them into the Trace, next to the
// sampled counter tracks.
//
// Telemetry observes the engine, it never steers it: results — and the
// reports rendered from them — are byte-identical with and without a
// Telemetry attached, which TestTelemetryDoesNotPerturbReport pins.
type Telemetry struct {
	Registry *obs.Registry
	// Trace, when non-nil, receives the engine's spans and the sampled
	// counter tracks as Chrome trace events. Set it before running.
	Trace *obs.Trace

	cacheMiss    *obs.Counter
	cacheHit     *obs.Counter
	cacheWait    *obs.Counter
	cellsRun     *obs.Counter
	cellsSampled *obs.Counter
	cellWall     *obs.Histogram

	tracerOnce sync.Once
	tracer     *tracespan.Tracer // mirror-only root for untraced ctxs

	mu      sync.Mutex
	exp     string // current experiment id (engine-stamped)
	cells   []CellTiming
	sampled []SampledSeries
}

// SampledSeries is one cell's cycle-driven sampled stream, kept for
// the -metrics time-series export and the simulated-time profile
// assembly. Experiment is the experiment that computed the cell; with
// the engine's cross-experiment cache a cell shared by several
// experiments is recorded once, under the experiment that ran first.
type SampledSeries struct {
	Workload   string           `json:"workload"`
	Config     string           `json:"config"`
	Platform   string           `json:"platform"`
	Experiment string           `json:"experiment,omitempty"`
	Samples    []sampler.Sample `json:"samples"`
}

// NewTelemetry returns a Telemetry with a fresh Registry and no Trace.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	return &Telemetry{
		Registry:     reg,
		cacheMiss:    reg.Counter("runner/cache_miss"),
		cacheHit:     reg.Counter("runner/cache_hit"),
		cacheWait:    reg.Counter("runner/cache_wait"),
		cellsRun:     reg.Counter("runner/cells_run"),
		cellsSampled: reg.Counter("runner/cells_sampled"),
		cellWall:     reg.Histogram("runner/cell_wall_ms"),
	}
}

// CacheStats is a live read of the runner cache-outcome counters,
// consumed by the observatory's /progress endpoint. Taken from atomics,
// so reading it mid-run never blocks the engine.
type CacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Waits   uint64  `json:"waits"`
	HitRate float64 `json:"hit_rate"`
}

// CacheStats returns the current cache-outcome counts (zero on nil).
func (t *Telemetry) CacheStats() CacheStats {
	if t == nil {
		return CacheStats{}
	}
	s := CacheStats{
		Hits:   t.cacheHit.Value(),
		Misses: t.cacheMiss.Value(),
		Waits:  t.cacheWait.Value(),
	}
	if total := s.Hits + s.Misses + s.Waits; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// CellsRun returns the number of cells computed so far (lock-free).
func (t *Telemetry) CellsRun() uint64 {
	if t == nil {
		return 0
	}
	return t.cellsRun.Value()
}

// CellWallSummary digests the per-cell wall-time histogram. It holds
// only that histogram's lock, for one pass over its buckets.
func (t *Telemetry) CellWallSummary() obs.Summary {
	if t == nil {
		return obs.Summary{}
	}
	return t.cellWall.Summarize()
}

// Cells returns a copy of the per-cell timing log.
func (t *Telemetry) Cells() []CellTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]CellTiming(nil), t.cells...)
}

// countCache records one cache lookup's outcome.
func (t *Telemetry) countCache(oc cacheOutcome) {
	if t == nil {
		return
	}
	switch oc {
	case cacheComputed:
		t.cacheMiss.Inc()
	case cacheHit:
		t.cacheHit.Inc()
	case cacheWaited:
		t.cacheWait.Inc()
	}
}

// cellDone logs one computed cell: its wall time and, when a device
// observer ran, its latency breakdown merged into the registry under
// "device/<platform>/<config>/...".
func (t *Telemetry) cellDone(ct CellTiming, do *obs.DeviceObserver) {
	if t == nil {
		return
	}
	t.cellsRun.Inc()
	t.cellWall.Record(ct.WallMs)
	do.MergeInto(t.Registry, "device/"+ct.Platform+"/"+ct.Config)
	t.mu.Lock()
	t.cells = append(t.cells, ct)
	t.mu.Unlock()
}

// cellSampled records one cell's sampled stream: into the time-series
// log for the -metrics export, and — when a trace is attached — as
// Perfetto counter tracks under a per-cell process, with simulated time
// mapped onto the cell's wall-clock span so the tracks line up with
// the worker span that computed them.
func (t *Telemetry) cellSampled(ct CellTiming, samples []sampler.Sample, wallStart time.Time) {
	if t == nil || len(samples) == 0 {
		return
	}
	t.cellsSampled.Inc()
	t.mu.Lock()
	t.sampled = append(t.sampled, SampledSeries{
		Workload: ct.Workload, Config: ct.Config, Platform: ct.Platform,
		Experiment: t.exp, Samples: samples,
	})
	pid := tracePidSamples + len(t.sampled) - 1
	t.mu.Unlock()
	if t.Trace == nil {
		return
	}
	t.Trace.SetProcessName(pid, "samples: "+ct.Workload+" @ "+ct.Config)
	startUs := t.Trace.StampUs(wallStart)
	sampler.AppendCounterTracks(t.Trace, pid, samples, startUs, startUs+ct.WallMs*1000)
}

// SampledSeries returns the collected per-cell streams sorted by
// (workload, config, platform, experiment) — a deterministic order
// regardless of worker scheduling. Series tied on all four (fig8d's
// intensity variants share them) keep the order they were recorded
// in. That order is deterministic because an experiment runs its tied
// cells one after another, each on its own isolated runner.
func (t *Telemetry) SampledSeries() []SampledSeries {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SampledSeries(nil), t.sampled...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return out[i].Experiment < out[j].Experiment
	})
	return out
}

// beginExperiment stamps subsequently sampled cells with the running
// experiment's id. The engine calls it at the top of each Run;
// experiments execute sequentially per engine, so the stamp — and the
// per-experiment profile grouping built on it — is deterministic.
func (t *Telemetry) beginExperiment(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.exp = id
	t.mu.Unlock()
}

// startSpan opens a span named name: a child of ctx's span when ctx
// carries one, else — with a Trace set — a root on the Telemetry's
// mirror-only tracer. With neither it returns (ctx, nil), a nil span
// whose methods no-op.
func (t *Telemetry) startSpan(ctx context.Context, name string, attrs ...tracespan.Attr) (context.Context, *tracespan.Span) {
	if t == nil || t.Trace == nil || tracespan.SpanFrom(ctx) != nil {
		return tracespan.Start(ctx, name, attrs...)
	}
	t.tracerOnce.Do(func() {
		t.tracer = tracespan.NewTracer(nil)
		t.tracer.SetMirror(t.Trace, tracePidEngine)
		t.Trace.SetProcessName(tracePidEngine, "melody engine")
	})
	return t.tracer.StartRoot(ctx, name, tracespan.SpanContext{}, attrs...)
}
