package hostprof

// The anomaly watchdog: a cheap check on a short cadence that turns
// "something is off with the process" into an immediate tagged capture
// while the anomaly is still happening. Waiting for the next interval
// round means profiling the aftermath; the watchdog profiles the event.

import "time"

// Watchdog signal names (capture reasons are ReasonWatchdogPrefix +
// signal, e.g. "watchdog:goroutines").
const (
	SignalGoroutines = "goroutines"
	SignalHeap       = "heap"
	SignalGCPause    = "gc_pause"
)

// Watchdog thresholds. The check runs every watchdogInterval.
// SignalGoroutines fires when the goroutine count is at least
// goroutineFactor times its exponential moving baseline and at least
// goroutineMin (small processes are noise). SignalHeap fires after
// heapGrowthStreak consecutive readings whose HeapAlloc each grew by
// at least heapGrowthMin bytes: monotonic growth across readings —
// spanning GC cycles — is what distinguishes a leak from churn.
// SignalGCPause fires when any stop-the-world pause since the previous
// reading exceeds gcPauseNs. A signal fires at most once per
// watchdogCooldown, so a persistent anomaly yields a few captures, not
// a capture per check.
const (
	watchdogInterval = 10 * time.Second
	goroutineFactor  = 2.0
	goroutineMin     = 200
	heapGrowthStreak = 5
	heapGrowthMin    = 8 << 20
	gcPauseNs        = 50e6
	watchdogCooldown = 2 * time.Minute
)

// watchdog holds the detector state. It is driven single-threaded from
// the profiler loop (or a test), one observe per reading.
type watchdog struct {
	seeded       bool
	emaGoroutine float64
	lastHeap     uint64
	heapStreak   int
	prevNumGC    uint32
	lastFired    map[string]time.Time
}

func newWatchdog() *watchdog {
	return &watchdog{lastFired: map[string]time.Time{}}
}

// observe folds one reading into the detector state and returns the
// signals that fired, in declaration order. The first reading only
// seeds the baselines.
func (w *watchdog) observe(r Reading) []string {
	w.prevNumGC = r.NumGC
	if !w.seeded {
		w.seeded = true
		w.emaGoroutine = float64(r.Goroutines)
		w.lastHeap = r.HeapAlloc
		return nil
	}

	var fired []string

	// Goroutine spike: compare against the baseline *before* folding
	// the spike in, or the spike would raise its own bar.
	if r.Goroutines >= goroutineMin &&
		float64(r.Goroutines) >= goroutineFactor*w.emaGoroutine {
		fired = w.fire(fired, SignalGoroutines, r.At)
	}
	w.emaGoroutine = 0.8*w.emaGoroutine + 0.2*float64(r.Goroutines)

	// Sustained heap growth.
	if r.HeapAlloc >= w.lastHeap+heapGrowthMin {
		w.heapStreak++
	} else {
		w.heapStreak = 0
	}
	w.lastHeap = r.HeapAlloc
	if w.heapStreak >= heapGrowthStreak {
		w.heapStreak = 0
		fired = w.fire(fired, SignalHeap, r.At)
	}

	// GC pause outlier.
	for _, p := range r.PauseNs {
		if p > gcPauseNs {
			fired = w.fire(fired, SignalGCPause, r.At)
			break
		}
	}
	return fired
}

// fire appends signal unless it is still cooling down (per signal,
// clocked off the reading's own timestamp so tests need no sleeps).
func (w *watchdog) fire(fired []string, signal string, at time.Time) []string {
	if last, ok := w.lastFired[signal]; ok && at.Sub(last) < watchdogCooldown {
		return fired
	}
	w.lastFired[signal] = at
	return append(fired, signal)
}
