// Package melody orchestrates the paper's experiments: it runs catalog
// workloads on (platform, memory-config) combinations through the core
// model, computes slowdowns against the local-DRAM baseline, applies Spa
// analysis, and regenerates every table and figure of the evaluation as
// a text report plus typed data.
package melody

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/moatlab/melody/internal/apps/graph"
	"github.com/moatlab/melody/internal/apps/kvstore"
	"github.com/moatlab/melody/internal/apps/tablestore"
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/obs/tracespan"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

// RegisterWorkloads installs the app-backed workloads (GAPBS, Redis,
// VoltDB, memcached) into the catalog exactly once. Safe for concurrent
// use.
func RegisterWorkloads() {
	registerOnce.Do(func() {
		graph.Register()
		kvstore.Register()
		tablestore.Register()
	})
}

var registerOnce sync.Once

// MemConfig names a buildable memory configuration.
//
// Contract: Build must be a pure function of seed — given the same seed
// it returns a freshly constructed, behaviourally identical device, with
// no dependence on call order or shared mutable state. The Runner caches
// results by Name alone, so two MemConfigs with the same Name handed to
// the same Runner must describe the same configuration; instrumented or
// otherwise impure configs (e.g. latency-recording wrappers) need a
// Runner of their own and a Name not shared with a pure config.
type MemConfig struct {
	Name  string
	Build func(seed uint64) mem.Device
}

// Standard configurations for a platform.

// Local returns the socket-local DRAM baseline config.
func Local(p platform.Platform) MemConfig {
	return MemConfig{Name: "Local", Build: func(seed uint64) mem.Device { return p.LocalDevice() }}
}

// NUMA returns the one-hop remote config.
func NUMA(p platform.Platform) MemConfig {
	return MemConfig{Name: "NUMA", Build: func(seed uint64) mem.Device { return p.NUMADevice(seed) }}
}

// CXL returns a locally attached CXL device config.
func CXL(p platform.Platform, prof cxl.Profile) MemConfig {
	return MemConfig{Name: prof.Name, Build: func(seed uint64) mem.Device { return p.CXLDevice(prof, seed) }}
}

// CXLNUMA returns the cross-socket CXL config.
func CXLNUMA(p platform.Platform, prof cxl.Profile) MemConfig {
	return MemConfig{Name: prof.Name + "+NUMA", Build: func(seed uint64) mem.Device { return p.CXLNUMADevice(prof, seed) }}
}

// CXLSwitch returns the switch-attached CXL config.
func CXLSwitch(p platform.Platform, prof cxl.Profile) MemConfig {
	return MemConfig{Name: prof.Name + "+Switch", Build: func(seed uint64) mem.Device { return p.CXLSwitchDevice(prof, seed) }}
}

// CXLInterleave returns an n-way interleaved CXL config.
func CXLInterleave(p platform.Platform, prof cxl.Profile, n int) MemConfig {
	return MemConfig{Name: fmt.Sprintf("%sx%d", prof.Name, n),
		Build: func(seed uint64) mem.Device { return p.CXLInterleaveDevice(prof, n, seed) }}
}

// RunRequest names one experiment cell: a workload on a memory config.
type RunRequest struct {
	Spec   workload.Spec
	Config MemConfig
}

// Cells builds the (workload, config) cross product, the unit of batch
// submission: experiments declare their full cell set up front and the
// runner executes it across the worker pool.
func Cells(specs []workload.Spec, configs ...MemConfig) []RunRequest {
	out := make([]RunRequest, 0, len(specs)*len(configs))
	for _, mc := range configs {
		for _, s := range specs {
			out = append(out, RunRequest{Spec: s, Config: mc})
		}
	}
	return out
}

// Result is one workload execution's measurement.
type Result struct {
	Workload string
	Config   string
	// Delta covers the measurement window (after warmup).
	Delta counters.Snapshot
	// Samples covers the whole run (time-based, for period analysis).
	Samples []core.Sample
	// Sampled is the cycle-driven "simulated perf" stream (counter
	// snapshots plus device CPMU state) when SampleEveryCycles is set.
	Sampled []sampler.Sample
	// Regions holds per-object attribution when requested.
	Regions []core.RegionStat
}

// Cycles returns the measurement window's cycle count.
func (r Result) Cycles() float64 { return r.Delta[counters.Cycles] }

// Runner executes workloads with memoization: the local-DRAM baseline
// of a workload is shared by every figure that needs its slowdown. The
// cache is a sharded singleflight, so concurrent requests for the same
// cell compute it exactly once, and bulk submissions (RunAll, SlowdownsCtx)
// fan out across a worker pool. Every cell's seed is derived from its
// cache identity (workload, config, base seed), so results are
// bit-identical regardless of scheduling order or worker count.
type Runner struct {
	Platform platform.Platform

	// Instructions is the measurement window; Warmup precedes it.
	Instructions uint64
	Warmup       uint64

	// SampleIntervalNs enables time sampling (period analysis).
	SampleIntervalNs float64

	// SampleEveryCycles enables the cycle-driven sampling layer: every
	// cell gets its own obs/sampler collecting counter snapshots (and,
	// on CXL devices, CPMU state probes) every N simulated cycles.
	// Sampling is observation-only — Delta is byte-identical with it on
	// or off — but it is part of the cache identity, since Results
	// carry the sampled stream.
	SampleEveryCycles uint64

	// PrefetchersOff disables HW prefetching (ablations).
	PrefetchersOff bool

	Seed uint64

	// Workers bounds bulk-submission concurrency (0 = NumCPU).
	Workers int

	// Obs, when set, collects engine telemetry: cache-outcome counters,
	// per-cell wall times and per-config device latency histograms.
	// Observation is strictly passive — results are byte-identical with
	// Obs set or nil — and a nil Obs costs a nil check per cell, nothing
	// per simulated access.
	Obs *Telemetry

	cache resultCache
}

// NewRunner returns a Runner with the defaults used across experiments.
func NewRunner(p platform.Platform) *Runner {
	return &Runner{
		Platform:     p,
		Instructions: 1_200_000,
		Warmup:       250_000,
		Seed:         1,
	}
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.NumCPU()
}

func (r *Runner) key(spec workload.Spec, mc MemConfig) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%g|%d|%v|%d",
		spec.Name, mc.Name, r.Platform.CPU.Name, r.Instructions, r.Warmup,
		r.SampleIntervalNs, r.SampleEveryCycles, r.PrefetchersOff, r.Seed)
}

// splitmix64 is the finalizer the per-cell seed derivation uses (the
// same mixer behind sim.Rand).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a cell identity string.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// deriveSeed maps a cell identity onto an independent seed stream:
// splitmix64 of the hashed "workload|config" identity mixed with the
// base seed. Because the derivation depends only on the cache key —
// never on execution order — parallel and sequential schedules produce
// bit-identical results.
//
// The workload instruction stream is seeded from the workload identity
// alone (config ""): Spa's differential analysis subtracts counters of
// the same workload on two configs, which is only meaningful when both
// runs execute the same instruction stream. Device and sibling-traffic
// state, which the differential is designed to expose, get the full
// per-cell seed.
func deriveSeed(workloadName, configName string, base uint64) uint64 {
	return splitmix64(fnv1a(workloadName+"|"+configName) ^ splitmix64(base))
}

// RunCtx executes (or returns the cached) measurement of one cell. If
// another goroutine is already computing the same cell, it waits for
// that computation instead of duplicating it; ctx cancels the wait (and
// refuses to start new work) but never aborts a simulation mid-run.
func (r *Runner) RunCtx(ctx context.Context, req RunRequest) (Result, error) {
	res, _, err := r.runCtx(ctx, req)
	return res, err
}

// runCtx is RunCtx plus the cache outcome, which telemetry and the
// worker-span instrumentation consume.
func (r *Runner) runCtx(ctx context.Context, req RunRequest) (Result, cacheOutcome, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, cacheHit, err
	}
	res, oc, err := r.cache.get(ctx, r.key(req.Spec, req.Config), func() Result {
		return r.runOnce(req)
	})
	if err == nil {
		r.Obs.countCache(oc)
	}
	return res, oc, err
}

// RunAll executes a batch of cells across the worker pool and returns
// results in request order. It is the bulk primitive behind SlowdownsCtx
// and the experiment engine's cell submission.
func (r *Runner) RunAll(ctx context.Context, reqs []RunRequest) ([]Result, error) {
	return r.runAll(ctx, reqs, nil)
}

// runAll fans reqs out over min(workers, len(reqs)) goroutines (one
// at -j 1, on worker track 0) and stops feeding cells after the first
// error; onDone (optional) observes completions for progress reporting.
//
// When ctx carries a span (the experiment span of a traced job or of a
// run with a Trace attached), each completed cell is reported
// post-completion as a "cell" child span, from the timestamps this loop
// already takes — the simulated path below runCtx never sees the
// tracer, and with no span in ctx the per-cell cost is one nil
// comparison (zero allocations, benchmark-pinned in tracing_test.go).
func (r *Runner) runAll(ctx context.Context, reqs []RunRequest, onDone func()) ([]Result, error) {
	results := make([]Result, len(reqs))
	parent := tracespan.SpanFrom(ctx)
	workers := r.workers()
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
		failed  atomic.Bool
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				// Cells already handed out when a cell fails are
				// skipped, so at -j 1 no cell runs after a failure.
				if failed.Load() {
					continue
				}
				var t0 time.Time
				if parent != nil {
					t0 = time.Now()
				}
				res, oc, err := r.runCtx(ctx, reqs[i])
				if err != nil {
					errOnce.Do(func() { firstEr = err; failed.Store(true) })
					continue
				}
				// Spans record only cells that returned a result: a
				// canceled cell was neither run nor served from cache.
				cellChild(parent, worker, reqs[i], t0, oc)
				results[i] = res
				if onDone != nil {
					onDone()
				}
			}
		}(w)
	}
	for i := range reqs {
		if failed.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}

// cellChild reports one completed cell as a child span of parent, the
// span ctx carried into runAll. Recording is post-completion — the
// caller measured, then reports — so the simulated hot path never
// interacts with the tracer; a nil parent (untraced run) records
// nothing and allocates nothing.
func cellChild(parent *tracespan.Span, worker int, req RunRequest, t0 time.Time, oc cacheOutcome) {
	if parent == nil {
		return
	}
	parent.Child("cell", t0, time.Now(),
		tracespan.String("workload", req.Spec.Name),
		tracespan.String("config", req.Config.Name),
		tracespan.String("outcome", oc.String()),
		tracespan.String("worker", fmt.Sprint(worker)),
	)
}

// buildDevice is the single call site for MemConfig.Build: every device
// a Runner measures against is constructed here, from the cell-derived
// seed, under the purity contract documented on MemConfig.
func (r *Runner) buildDevice(mc MemConfig, seed uint64) mem.Device {
	return mc.Build(seed)
}

func (r *Runner) runOnce(req RunRequest) Result {
	spec, mc := req.Spec, req.Config
	cell := deriveSeed(spec.Name, mc.Name, r.Seed)
	stream := deriveSeed(spec.Name, "", r.Seed)
	dev := r.buildDevice(mc, cell)

	// Cycle-driven sampling attaches its device probe to the raw device
	// — before any observation wrapper — so CPMU state reads the
	// expander itself. Configs whose device is not a bare CXL expander
	// (Local, NUMA, topology wrappers) sample CPU counters only.
	var smp *sampler.Sampler
	if r.SampleEveryCycles > 0 {
		prober, _ := dev.(cxl.StateProber)
		smp = sampler.New(prober)
	}

	// Telemetry: observe the device path and time the cell. The observer
	// sees completed accesses only — it cannot change their timing — so
	// the measured Result is identical with telemetry on or off.
	var devObs *obs.DeviceObserver
	var wallStart time.Time
	if r.Obs != nil {
		devObs = obs.NewDeviceObserver()
		dev = mem.Observe(dev, devObs)
		wallStart = time.Now()
	}

	var machineDev mem.Device = dev
	if threads := spec.Siblings.BuildThreads(dev, cell+101); threads != nil {
		machineDev = core.NewContendedDevice(dev, threads)
	}
	instr := r.Instructions
	if spec.Instructions > 0 {
		instr = spec.Instructions
	}
	w := spec.Build(stream)
	cfg := core.Config{
		CPU:              r.Platform.CPU,
		Device:           machineDev,
		PrefetchersOff:   r.PrefetchersOff,
		MaxInstructions:  r.Warmup,
		SampleIntervalNs: r.SampleIntervalNs,
	}
	if smp != nil {
		cfg.Sampler = smp
		cfg.SampleEveryCycles = r.SampleEveryCycles
	}
	m := machines.get(cfg.CPU)
	defer machines.put(cfg.CPU, m, r.workers())
	m.Reset(cfg)
	if syn, ok := w.(*workload.Synthetic); ok {
		m.SetRegions(syn.Arena().Objects())
	}
	if pl, ok := w.(workload.Preloader); ok {
		for _, o := range pl.PreloadObjects() {
			m.Preload(o.Base, o.Size)
		}
	}
	w.Run(m)
	before := m.Counters()
	m.SetMaxInstructions(r.Warmup + instr)
	w.Run(m)
	after := m.Counters()

	var sampled []sampler.Sample
	if smp != nil {
		sampled = smp.Samples()
	}

	if r.Obs != nil {
		ct := CellTiming{
			Workload: spec.Name,
			Config:   mc.Name,
			Platform: r.Platform.CPU.Name,
			Seed:     cell,
			WallMs:   float64(time.Since(wallStart)) / float64(time.Millisecond),
		}
		r.Obs.cellDone(ct, devObs)
		r.Obs.cellSampled(ct, sampled, wallStart)
	}

	return Result{
		Workload: spec.Name,
		Config:   mc.Name,
		Delta:    after.Delta(before),
		Samples:  m.Samples(),
		Sampled:  sampled,
		Regions:  m.RegionStats(),
	}
}

// machines keeps idle machines for every Runner in the process, so a
// cell resets a machine whose cache set pools earlier cells (of any
// Runner, Engine or service job) have already grown, instead of
// growing new ones. Reset leaves a reused machine in exactly the state
// of a new one, so reuse cannot change a result.
var machines = machinePool{free: map[platform.CPU][]*core.Machine{}}

// machinePool holds idle machines per CPU, so a reused machine keeps
// its cache geometry. It keeps at most as many idle machines per CPU as
// the returning Runner has workers, for the life of the process.
type machinePool struct {
	mu   sync.Mutex
	free map[platform.CPU][]*core.Machine
}

// get returns an idle machine for cpu, or a zero one to Reset.
func (p *machinePool) get(cpu platform.CPU) *core.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.free[cpu]
	n := len(free)
	if n == 0 {
		return &core.Machine{}
	}
	p.free[cpu] = free[:n-1]
	return free[n-1]
}

// put returns m, which ran a cell on cpu, to the pool, keeping at most
// limit idle machines for cpu. m is first reset without a device, so an idle
// machine holds no cell's device, sampler, samples or regions.
func (p *machinePool) put(cpu platform.CPU, m *core.Machine, limit int) {
	m.Reset(core.Config{CPU: cpu})
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[cpu]) < limit {
		p.free[cpu] = append(p.free[cpu], m)
	}
}

// SlowdownCtx measures spec's slowdown of target relative to the local
// baseline, S = (c_target - c_local) / c_local, submitting both cells
// as one batch under ctx.
func (r *Runner) SlowdownCtx(ctx context.Context, spec workload.Spec, target MemConfig) (float64, error) {
	out, err := r.SlowdownsCtx(ctx, []workload.Spec{spec}, target)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// SlowdownsCtx evaluates a workload set against one target config: it
// submits the full baseline + target cell set as one batch under ctx
// and derives the slowdowns from the results.
func (r *Runner) SlowdownsCtx(ctx context.Context, specs []workload.Spec, target MemConfig) ([]float64, error) {
	reqs := append(Cells(specs, Local(r.Platform)), Cells(specs, target)...)
	results, err := r.RunAll(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(specs))
	for i := range specs {
		base, tgt := results[i], results[len(specs)+i]
		if c := base.Cycles(); c > 0 {
			out[i] = (tgt.Cycles() - c) / c
		}
	}
	return out, nil
}

// resultCache is a sharded singleflight result store: the shard map
// bounds lock contention and the per-entry done channel lets concurrent
// requesters of one cell wait on a single computation.
type resultCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 32

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	done chan struct{}
	res  Result
}

// cacheOutcome classifies one cache lookup for telemetry: the requester
// computed the cell, found it complete, or waited on another computer.
type cacheOutcome uint8

const (
	cacheComputed cacheOutcome = iota
	cacheHit
	cacheWaited
)

// String implements fmt.Stringer.
func (o cacheOutcome) String() string {
	switch o {
	case cacheComputed:
		return "computed"
	case cacheHit:
		return "hit"
	case cacheWaited:
		return "waited"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

func (c *resultCache) get(ctx context.Context, key string, compute func() Result) (Result, cacheOutcome, error) {
	sh := &c.shards[fnv1a(key)%cacheShards]
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		if sh.m == nil {
			sh.m = map[string]*cacheEntry{}
		}
		sh.m[key] = e
		sh.mu.Unlock()
		// Leader: compute outside the shard lock, then publish. The
		// computation is never aborted mid-run so waiters always get a
		// completed result.
		e.res = compute()
		close(e.done)
		return e.res, cacheComputed, nil
	}
	sh.mu.Unlock()
	select {
	case <-e.done:
		return e.res, cacheHit, nil
	default:
	}
	select {
	case <-e.done:
		return e.res, cacheWaited, nil
	case <-ctx.Done():
		return Result{}, cacheWaited, ctx.Err()
	}
}
