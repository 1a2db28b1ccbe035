package hostprof

import (
	"testing"
	"time"
)

// wdReading builds readings with a controllable clock so cooldown
// logic is tested without sleeping.
func wdReading(at time.Time, goroutines int, heap uint64, pauses ...float64) Reading {
	return Reading{At: at, Goroutines: goroutines, HeapAlloc: heap, PauseNs: pauses}
}

func newTestWatchdog() (*watchdog, time.Time) {
	return newWatchdog(), time.Unix(1700000000, 0)
}

func TestWatchdogFirstReadingOnlySeeds(t *testing.T) {
	w, t0 := newTestWatchdog()
	// A wildly anomalous first reading must not fire: it IS the baseline.
	if got := w.observe(wdReading(t0, 100000, 1<<30, 1e9)); len(got) != 0 {
		t.Fatalf("first reading fired %v", got)
	}
}

func TestWatchdogGoroutineSpike(t *testing.T) {
	w, t0 := newTestWatchdog()
	w.observe(wdReading(t0, 50, 0))
	// Four times the baseline but under goroutineMin: no fire.
	if got := w.observe(wdReading(t0.Add(10*time.Second), goroutineMin-1, 0)); len(got) != 0 {
		t.Fatalf("sub-minimum spike fired %v", got)
	}
	// Now well past both the factor and the floor.
	got := w.observe(wdReading(t0.Add(20*time.Second), 400, 0))
	if len(got) != 1 || got[0] != SignalGoroutines {
		t.Fatalf("spike fired %v, want [goroutines]", got)
	}
	// Still elevated inside the cooldown: silent, up to its last second.
	if got := w.observe(wdReading(t0.Add(30*time.Second), 800, 0)); len(got) != 0 {
		t.Fatalf("cooldown violated: %v", got)
	}
	if got := w.observe(wdReading(t0.Add(20*time.Second+watchdogCooldown-time.Second), 5000, 0)); len(got) != 0 {
		t.Fatalf("cooldown violated before it elapsed: %v", got)
	}
	// Once the cooldown has elapsed a persisting spike fires again.
	if got := w.observe(wdReading(t0.Add(20*time.Second+watchdogCooldown), 50000, 0)); len(got) != 1 {
		t.Fatalf("post-cooldown spike fired %v", got)
	}
}

func TestWatchdogHeapGrowthStreak(t *testing.T) {
	w, t0 := newTestWatchdog()
	const mb = 1 << 20
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * 10 * time.Second) }
	w.observe(wdReading(at(0), 10, 10*mb))
	// Four growing readings, then a dip: streak resets, no fire.
	heap := uint64(10 * mb)
	for i := 1; i < heapGrowthStreak; i++ {
		heap += heapGrowthMin
		if got := w.observe(wdReading(at(i), 10, heap)); len(got) != 0 {
			t.Fatalf("streak of %d fired %v", i, got)
		}
	}
	heap -= mb
	if got := w.observe(wdReading(at(heapGrowthStreak), 10, heap)); len(got) != 0 {
		t.Fatalf("reset streak fired %v", got)
	}
	// heapGrowthStreak consecutive steps of exactly heapGrowthMin: fires
	// on the last.
	for i := 1; i <= heapGrowthStreak; i++ {
		heap += heapGrowthMin
		got := w.observe(wdReading(at(heapGrowthStreak+i), 10, heap))
		if i < heapGrowthStreak && len(got) != 0 {
			t.Fatalf("streak of %d fired %v", i, got)
		}
		if i == heapGrowthStreak && (len(got) != 1 || got[0] != SignalHeap) {
			t.Fatalf("heap streak fired %v, want [heap]", got)
		}
	}
	// Growth one byte short of heapGrowthMin never builds a streak.
	w2, u0 := newTestWatchdog()
	heap = 10 * mb
	w2.observe(wdReading(u0, 10, heap))
	for i := 1; i <= 2*heapGrowthStreak; i++ {
		heap += heapGrowthMin - 1
		if got := w2.observe(wdReading(u0.Add(time.Duration(i)*10*time.Second), 10, heap)); len(got) != 0 {
			t.Fatalf("sub-threshold growth fired %v", got)
		}
	}
}

func TestWatchdogGCPauseOutlier(t *testing.T) {
	w, t0 := newTestWatchdog()
	w.observe(wdReading(t0, 10, 0))
	if got := w.observe(wdReading(t0.Add(10*time.Second), 10, 0, 5e6, gcPauseNs)); len(got) != 0 {
		t.Fatalf("pauses up to the threshold fired %v", got)
	}
	got := w.observe(wdReading(t0.Add(20*time.Second), 10, 0, 5e6, gcPauseNs+1))
	if len(got) != 1 || got[0] != SignalGCPause {
		t.Fatalf("pause outlier fired %v, want [gc_pause]", got)
	}
	// The same outlier inside the cooldown is silent.
	if got := w.observe(wdReading(t0.Add(30*time.Second), 10, 0, 1e9)); len(got) != 0 {
		t.Fatalf("cooldown violated: %v", got)
	}
}

func TestWatchdogIndependentSignalsAndCooldowns(t *testing.T) {
	w, t0 := newTestWatchdog()
	const mb = 1 << 20
	heap := uint64(10 * mb)
	w.observe(wdReading(t0, 50, heap))
	for i := 1; i < heapGrowthStreak; i++ {
		heap += heapGrowthMin
		w.observe(wdReading(t0.Add(time.Duration(i)*10*time.Second), 50, heap))
	}
	// One reading trips all three signals at once.
	heap += heapGrowthMin
	got := w.observe(wdReading(t0.Add(time.Minute), 400, heap, 2*gcPauseNs))
	if len(got) != 3 {
		t.Fatalf("combined anomaly fired %v, want all three signals", got)
	}
	if got[0] != SignalGoroutines || got[1] != SignalHeap || got[2] != SignalGCPause {
		t.Fatalf("signal order = %v", got)
	}
	// Cooldowns are per signal: with only gc_pause's cooldown moved into
	// the past, only gc_pause fires again.
	w.lastFired[SignalGCPause] = t0.Add(-time.Hour)
	got = w.observe(wdReading(t0.Add(70*time.Second), 800, heap, 2*gcPauseNs))
	if len(got) != 1 || got[0] != SignalGCPause {
		t.Fatalf("per-signal cooldown broken: %v", got)
	}
}

// TestWatchdogDefaults pins the goroutine threshold at its constants:
// a count of exactly goroutineMin at goroutineFactor times the
// baseline fires, one goroutine fewer on either bound does not.
func TestWatchdogDefaults(t *testing.T) {
	const base = goroutineMin / goroutineFactor
	for _, c := range []struct {
		base, now int
		fire      bool
	}{
		{base, goroutineMin, true},
		{base, goroutineMin - 1, false},
		{base + 1, goroutineMin, false},
	} {
		w, t0 := newTestWatchdog()
		w.observe(wdReading(t0, c.base, 0))
		if got := w.observe(wdReading(t0.Add(watchdogInterval), c.now, 0)); (len(got) == 1) != c.fire {
			t.Fatalf("baseline %d, %d goroutines: fired %v, want fire=%v", c.base, c.now, got, c.fire)
		}
	}
}
