package serve

import (
	"testing"
	"time"

	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/hostprof"
)

// TestRuntimeSamplerMapsReading pins the Reading → gauge mapping with
// an injected fake, including the prevNumGC handshake between samples.
func TestRuntimeSamplerMapsReading(t *testing.T) {
	reg := obs.NewRegistry()
	rs := newRuntimeSampler(reg, time.Now().Add(-10*time.Second))

	var askedPrev []uint32
	rs.read = func(prev uint32) hostprof.Reading {
		askedPrev = append(askedPrev, prev)
		return hostprof.Reading{
			Goroutines: 42,
			HeapAlloc:  1 << 20,
			HeapSys:    4 << 20,
			NumGC:      7,
			PauseNs:    []float64{1000, 2000, 3000},
		}
	}
	rs.sample()

	if v := reg.Gauge("runtime/goroutines").Value(); v != 42 {
		t.Fatalf("goroutines = %v", v)
	}
	if v := reg.Gauge("runtime/heap_alloc_bytes").Value(); v != 1<<20 {
		t.Fatalf("heap_alloc_bytes = %v", v)
	}
	if v := reg.Gauge("runtime/heap_sys_bytes").Value(); v != 4<<20 {
		t.Fatalf("heap_sys_bytes = %v", v)
	}
	if v := reg.Gauge("runtime/gc_runs").Value(); v != 7 {
		t.Fatalf("gc_runs = %v", v)
	}
	if v := reg.Gauge("runtime/uptime_seconds").Value(); v < 10 {
		t.Fatalf("uptime_seconds = %v", v)
	}
	h := reg.Histogram("runtime/gc_pause_ns")
	if ex := h.Export(); ex.Count != 3 || ex.Sum != 6000 {
		t.Fatalf("gc_pause_ns count=%d sum=%v", ex.Count, ex.Sum)
	}

	// The next sample asks for pauses since the previous NumGC.
	rs.read = func(prev uint32) hostprof.Reading {
		askedPrev = append(askedPrev, prev)
		return hostprof.Reading{NumGC: 7} // no new cycles
	}
	rs.sample()
	if len(askedPrev) != 2 || askedPrev[0] != 0 || askedPrev[1] != 7 {
		t.Fatalf("prevNumGC handshake = %v, want [0 7]", askedPrev)
	}
	if n := h.Export().Count; n != 3 {
		t.Fatalf("no-new-cycles sample recorded pauses: count=%d", n)
	}
}

// TestRuntimeSamplerPauseRingWraparound pins the PauseNs-ring contract
// end to end: a scrape gap wider than the runtime's 256-entry pause
// ring records exactly the ring's depth — the newest 256 pauses — not
// 0 and not the (unknowable) full gap.
func TestRuntimeSamplerPauseRingWraparound(t *testing.T) {
	reg := obs.NewRegistry()
	rs := newRuntimeSampler(reg, time.Now())

	// A synthetic pause ring where cycle c's pause is c nanoseconds,
	// exactly as the runtime lays it out: cycle c at (c+255)%256.
	var ring [256]uint64
	const cur = 600
	for c := uint32(cur - 255); c <= cur; c++ {
		ring[(c+255)%256] = uint64(c)
	}
	rs.read = func(prev uint32) hostprof.Reading {
		return hostprof.Reading{NumGC: cur, PauseNs: hostprof.PausesSince(&ring, prev, cur)}
	}

	// First sample: prev=0, gap of 600 cycles >> ring depth.
	rs.sample()
	h := reg.Histogram("runtime/gc_pause_ns")
	ex := h.Export()
	if ex.Count != 256 {
		t.Fatalf("wrapped sample recorded %d pauses, want 256", ex.Count)
	}
	// Newest-biased: the retained pauses are cycles 345..600.
	if ex.Min != 345 || ex.Max != 600 {
		t.Fatalf("wrapped sample spans [%v, %v], want [345, 600]", ex.Min, ex.Max)
	}

	// A later small advance records exactly the new cycles.
	rs.read = func(prev uint32) hostprof.Reading {
		if prev != cur {
			t.Fatalf("second sample prev = %d, want %d", prev, cur)
		}
		return hostprof.Reading{NumGC: cur + 2, PauseNs: []float64{7, 9}}
	}
	rs.sample()
	if n := h.Export().Count; n != 258 {
		t.Fatalf("count after advance = %d, want 258", n)
	}
}

// TestRuntimeSamplerRealReadings smoke-checks the default (uninjected)
// path against the live runtime.
func TestRuntimeSamplerRealReadings(t *testing.T) {
	reg := obs.NewRegistry()
	rs := newRuntimeSampler(reg, time.Now())
	rs.sample()
	if reg.Gauge("runtime/goroutines").Value() <= 0 {
		t.Fatal("goroutines gauge not set from live runtime")
	}
	if reg.Gauge("runtime/heap_alloc_bytes").Value() <= 0 {
		t.Fatal("heap gauge not set from live runtime")
	}
}
