// Package hostprof is the continuous host profiler: it periodically
// captures CPU, heap, goroutine, mutex and block profiles of the live
// melody process (runtime/pprof output, the format `go tool pprof`
// consumes) and keeps them in a bounded, content-addressed store with
// tail-biased retention. Where internal/obs/profile renders *simulated*
// time — where the modeled machine's cycles go — hostprof measures the
// *host*: where the Go process itself burns CPU and heap while serving
// jobs. The speed roadmap runs on exactly this data: a serving process
// profiled under real traffic, not a one-off benchmark snapshot.
//
// Attribution: the jobs executor and melody's Execute/Engine wrap their
// work in pprof.Do with job_id / spec_hash / experiment labels, and
// worker goroutines inherit them — so a CPU capture here is sliceable
// per job (`go tool pprof -tagfocus job_id=run-000042`) and the labels
// join the correlation-key family shared by logs, metrics, traces and
// the job API.
//
// Capture taxonomy:
//
//	cpu        windowed pprof.StartCPUProfile session, min(5s, Interval/2)
//	heap       instant allocation snapshot (inuse/alloc space+objects)
//	goroutine  instant stack census
//	mutex      contention events sampled only during the round's window
//	block      blocking events sampled only during the round's window
//
// Mutex and block profiling rates are set when a round begins and
// restored when it ends, so their bookkeeping costs nothing between
// rounds and nothing at all when the profiler is off.
//
// Rounds run on a fixed Interval ("interval" reason), immediately when
// a job starts ("job_start", wired by the observatory so a short job is
// never missed between ticks), and immediately when the anomaly
// watchdog fires ("watchdog:goroutines" / "watchdog:heap" /
// "watchdog:gc_pause" — see watchdog.go). Each capture is stamped with
// every job that executed between its round's start and the capture's
// end (Config.JobsDuring), so a job that starts and finishes inside
// one CPU window is still found by job id. The profiler is strictly
// observation-side: it shares no state with the engine, so manifests
// are byte-identical with profiling on or off (test-pinned in
// internal/melody).
package hostprof

import (
	"bytes"
	"context"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// Capture reasons. Watchdog reasons are ReasonWatchdogPrefix + signal.
const (
	ReasonInterval       = "interval"
	ReasonJobStart       = "job_start"
	ReasonWatchdogPrefix = "watchdog:"
)

// Profile types, matching runtime/pprof's Lookup names (cpu is the
// windowed StartCPUProfile session, not a Lookup). Every round captures
// all five.
const (
	TypeCPU       = "cpu"
	TypeHeap      = "heap"
	TypeGoroutine = "goroutine"
	TypeMutex     = "mutex"
	TypeBlock     = "block"
)

// Capture settings. A round's CPU window is maxCPUWindow, or half the
// interval when that is shorter, so rounds can never overlap. While the
// window is open the mutex profile fraction is mutexFraction (restored
// to its previous value after) and the block profile rate is blockRate
// ns (reset to 0 after: block profiling has no read-back, so the
// profiler owns the knob).
const (
	defaultInterval = 60 * time.Second
	maxCPUWindow    = 5 * time.Second
	mutexFraction   = 5
	blockRate       = 10_000
)

// Config parameterizes a Profiler. The zero value is usable.
type Config struct {
	// Interval is the cadence between routine capture rounds
	// (default 60s). It also sets the CPU window, min(5s, Interval/2).
	Interval time.Duration
	// Registry, when set, receives the profiler's self-metrics
	// (hostprof/* families). Point it at an observatory self-registry,
	// never at an engine registry.
	Registry *obs.Registry
	// Log receives one structured line per capture (nil is silent).
	Log *slog.Logger
	// JobsDuring, when set, returns the ids of jobs that executed at
	// some point in [from, to]; each capture is stamped with the jobs
	// its round overlapped and protected by retention.
	JobsDuring func(from, to time.Time) []string
}

// Profiler runs the capture loop. Build with New, drive with Run;
// TriggerCPU requests an immediate out-of-cadence round.
type Profiler struct {
	cfg     Config
	window  time.Duration // CPU window per round
	store   *Store
	trigger chan string
	wd      *watchdog
}

// New returns a Profiler over cfg (see Config for defaults).
func New(cfg Config) *Profiler {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.Log == nil {
		cfg.Log = svclog.Discard()
	}
	return &Profiler{
		cfg:     cfg,
		window:  min(maxCPUWindow, cfg.Interval/2),
		store:   NewStore(),
		trigger: make(chan string, 4),
		wd:      newWatchdog(),
	}
}

// Store returns the capture store behind /profiles.
func (p *Profiler) Store() *Store { return p.store }

// Interval returns the effective routine-capture cadence.
func (p *Profiler) Interval() time.Duration { return p.cfg.Interval }

// TriggerCPU requests an immediate capture round tagged reason. It
// never blocks: with the trigger queue full the request is dropped
// (and counted) — the in-flight round is already capturing.
func (p *Profiler) TriggerCPU(reason string) {
	if p == nil {
		return
	}
	select {
	case p.trigger <- reason:
	default:
		p.count("hostprof/triggers_dropped")
	}
}

// Run is the capture loop: an immediate first round, then one round
// per Interval, plus watchdog checks and triggered rounds in between.
// It blocks until ctx is done; profiling rates are always restored on
// the way out.
func (p *Profiler) Run(ctx context.Context) {
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	wdTick := time.NewTicker(watchdogInterval)
	defer wdTick.Stop()
	// Seed the watchdog's baseline before any work is profiled.
	p.wd.observe(TakeReading(0))
	// First round immediately: a short-lived process (or a CI smoke)
	// should not wait a full interval for its first profile.
	p.round(ctx, ReasonInterval)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			p.round(ctx, ReasonInterval)
		case reason := <-p.trigger:
			p.round(ctx, reason)
		case <-wdTick.C:
			reading := TakeReading(p.wd.prevNumGC)
			reasons := p.wd.observe(reading)
			for _, r := range reasons {
				p.count("hostprof/watchdog_triggers|reason=" + r)
				p.cfg.Log.Warn("hostprof watchdog triggered",
					"signal", r,
					"goroutines", reading.Goroutines,
					"heap_alloc_bytes", reading.HeapAlloc,
				)
			}
			if len(reasons) > 0 {
				p.round(ctx, ReasonWatchdogPrefix+reasons[0])
			}
		}
	}
}

// round captures every profile type once, tagged reason. Each capture
// is stamped with the jobs that ran between the round's start and the
// capture's end.
func (p *Profiler) round(ctx context.Context, reason string) {
	start := time.Now()
	p.count("hostprof/rounds|reason=" + reason)

	// Instant snapshots first: they describe the process at the moment
	// the round (and whatever triggered it) began.
	p.lookupCapture(TypeHeap, reason, start)
	p.lookupCapture(TypeGoroutine, reason, start)

	// Windowed captures: mutex/block event sampling is enabled only
	// while the window is open, so the cost between rounds — and with
	// the profiler off — is exactly zero.
	prevMutex := runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRate)
	var cpuBuf bytes.Buffer
	cpuStart := time.Now()
	cpuErr := pprof.StartCPUProfile(&cpuBuf)
	if cpuErr != nil {
		// Another CPU profile is in flight (e.g. a /debug/pprof fetch);
		// skip this window rather than fight over it.
		p.count("hostprof/capture_errors|type=" + TypeCPU)
		p.cfg.Log.Warn("hostprof cpu capture skipped", "err", cpuErr.Error())
	}
	sleepCtx(ctx, p.window)
	if cpuErr == nil {
		pprof.StopCPUProfile()
		p.add(Capture{Type: TypeCPU, Reason: reason, Start: cpuStart, End: time.Now(),
			Bytes: cpuBuf.Bytes()}, start)
	}
	p.lookupCapture(TypeMutex, reason, start)
	runtime.SetMutexProfileFraction(prevMutex)
	p.lookupCapture(TypeBlock, reason, start)
	runtime.SetBlockProfileRate(0)

	if reg := p.cfg.Registry; reg != nil {
		reg.Histogram("hostprof/round_seconds").Record(time.Since(start).Seconds())
		st := p.store.Stats()
		reg.Gauge("hostprof/store_captures").Set(float64(st.Stored))
		reg.Gauge("hostprof/store_bytes").Set(float64(st.StoredLen))
		reg.Gauge("hostprof/store_evictions").Set(float64(st.Evicted))
	}
}

// lookupCapture snapshots one runtime/pprof named profile (debug=0 is
// the gzipped protobuf form every pprof consumer reads).
func (p *Profiler) lookupCapture(name, reason string, roundStart time.Time) {
	prof := pprof.Lookup(name)
	if prof == nil {
		p.count("hostprof/capture_errors|type=" + name)
		return
	}
	now := time.Now()
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		p.count("hostprof/capture_errors|type=" + name)
		p.cfg.Log.Warn("hostprof capture failed", "type", name, "err", err.Error())
		return
	}
	p.add(Capture{Type: name, Reason: reason, Start: now, End: now, Bytes: buf.Bytes()}, roundStart)
}

// add stamps c with the jobs that ran in [roundStart, c.End], stores
// it, and records its self-metrics and log line.
func (p *Profiler) add(c Capture, roundStart time.Time) {
	if p.cfg.JobsDuring != nil {
		c.Jobs = p.cfg.JobsDuring(roundStart, c.End)
	}
	id := p.store.Add(c)
	p.count("hostprof/captures|type=" + c.Type)
	if p.cfg.Registry != nil {
		p.cfg.Registry.Histogram("hostprof/capture_bytes").Record(float64(len(c.Bytes)))
	}
	p.cfg.Log.Debug("hostprof capture",
		"profile_id", id,
		"type", c.Type,
		"reason", c.Reason,
		"bytes", len(c.Bytes),
		"jobs", len(c.Jobs),
	)
}

func (p *Profiler) count(name string) {
	if p.cfg.Registry != nil {
		p.cfg.Registry.Counter(name).Inc()
	}
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
