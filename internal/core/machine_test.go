package core

import (
	"reflect"
	"testing"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/traffic"
)

// fixedDev is a deterministic constant-latency device for unit tests.
type fixedDev struct {
	lat   float64
	stats mem.DeviceStats
}

func (d *fixedDev) Access(now float64, addr uint64, kind mem.Kind) float64 {
	if kind == mem.Write {
		d.stats.Writes++
		return now + d.lat/4
	}
	d.stats.Reads++
	return now + d.lat
}
func (d *fixedDev) Name() string           { return "fixed" }
func (d *fixedDev) Reset()                 { d.stats = mem.DeviceStats{} }
func (d *fixedDev) Stats() mem.DeviceStats { return d.stats }

func testCPU() platform.CPU {
	cpu := platform.SKX2S().CPU
	cpu.MissOverheadNs = 0 // keep arithmetic simple in tests
	return cpu
}

func newMachine(lat float64) *Machine {
	return New(Config{CPU: testCPU(), Device: &fixedDev{lat: lat}})
}

func TestPureComputeNoStalls(t *testing.T) {
	m := newMachine(100)
	m.Compute(100000)
	c := m.Counters()
	if c[counters.RetiredStalls] != 0 {
		t.Fatalf("compute produced %v stall cycles", c[counters.RetiredStalls])
	}
	if ipc := c.IPC(); ipc < 3.9 || ipc > 4.1 {
		t.Fatalf("compute IPC = %v, want ~4", ipc)
	}
}

func TestL1ResidentLoadsFast(t *testing.T) {
	m := newMachine(100)
	// 16KB working set fits in the 32KB L1.
	for i := 0; i < 50000; i++ {
		m.Load(uint64(i%256)*mem.LineSize, false)
		m.Compute(3)
	}
	c := m.Counters()
	if c[counters.StallsL1DMiss] > c[counters.Cycles]*0.05 {
		t.Fatalf("L1-resident loop has %v L1-miss stall cycles", c[counters.StallsL1DMiss])
	}
	if c[counters.DemandL3Miss] > 300 {
		t.Fatalf("L1-resident loop reached DRAM %v times", c[counters.DemandL3Miss])
	}
}

func TestPointerChaseStallsOnDRAM(t *testing.T) {
	m := newMachine(200)
	m.cfg.PrefetchersOff = true
	r := sim.NewRand(1)
	const ws = 256 << 20
	for i := 0; i < 20000; i++ {
		m.Load(r.Uint64n(ws/mem.LineSize)*mem.LineSize, true)
	}
	c := m.Counters()
	total := c[counters.Cycles]
	if c[counters.StallsL3Miss] < total*0.8 {
		t.Fatalf("pointer chase: DRAM stalls %v of %v cycles, want >80%%",
			c[counters.StallsL3Miss], total)
	}
	// Counter nesting must hold.
	if !(c[counters.BoundOnLoads] >= c[counters.StallsL1DMiss] &&
		c[counters.StallsL1DMiss] >= c[counters.StallsL2Miss] &&
		c[counters.StallsL2Miss] >= c[counters.StallsL3Miss]) {
		t.Fatalf("stall nesting violated: P1=%v P3=%v P4=%v P5=%v",
			c[counters.BoundOnLoads], c[counters.StallsL1DMiss],
			c[counters.StallsL2Miss], c[counters.StallsL3Miss])
	}
}

func TestSlowerDeviceSlowsChase(t *testing.T) {
	run := func(lat float64) float64 {
		m := newMachine(lat)
		r := sim.NewRand(1)
		for i := 0; i < 20000; i++ {
			m.Load(r.Uint64n((256<<20)/mem.LineSize)*mem.LineSize, true)
		}
		return m.Counters()[counters.Cycles]
	}
	local, cxl := run(100), run(300)
	slowdown := cxl/local - 1
	// Dependent loads at 20k instructions: nearly all time is memory, so
	// a 3x latency increase should slow by roughly 2.5-3x.
	if slowdown < 1.5 {
		t.Fatalf("3x device latency gave only %.0f%% slowdown", slowdown*100)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	run := func(dependent bool) float64 {
		m := newMachine(200)
		m.cfg.PrefetchersOff = true
		r := sim.NewRand(1)
		for i := 0; i < 20000; i++ {
			m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, dependent)
		}
		return m.Counters()[counters.Cycles]
	}
	dep, indep := run(true), run(false)
	if indep > dep/3 {
		t.Fatalf("MLP: independent loads (%v cycles) not much faster than dependent (%v)", indep, dep)
	}
}

func TestStreamingPrefetchHelps(t *testing.T) {
	run := func(off bool) float64 {
		m := newMachine(150)
		m.cfg.PrefetchersOff = off
		for i := uint64(0); i < 100000; i++ {
			m.Load(i*mem.LineSize, false)
			m.Compute(4)
		}
		return m.Counters()[counters.Cycles]
	}
	on, off := run(false), run(true)
	if on > off*0.7 {
		t.Fatalf("prefetch on (%v cycles) not much faster than off (%v)", on, off)
	}
}

func TestPrefetchersOffNoCacheStalls(t *testing.T) {
	// Paper §5.4: with prefetchers disabled there are virtually no
	// cache-level stalls — everything shifts to DRAM.
	m := newMachine(250)
	m.cfg.PrefetchersOff = true
	for i := uint64(0); i < 50000; i++ {
		m.Load(i*mem.LineSize, false)
		m.Compute(4)
	}
	c := m.Counters()
	sCache := (c[counters.BoundOnLoads] - c[counters.StallsL1DMiss]) +
		(c[counters.StallsL1DMiss] - c[counters.StallsL2Miss]) +
		(c[counters.StallsL2Miss] - c[counters.StallsL3Miss])
	if sCache > c[counters.Cycles]*0.05 {
		t.Fatalf("prefetchers off but cache stalls = %v of %v cycles", sCache, c[counters.Cycles])
	}
	if c[counters.L1PFIssued]+c[counters.L2PFIssued] != 0 {
		t.Fatal("prefetches issued while disabled")
	}
}

func TestStreamingCXLShiftsStallsToCache(t *testing.T) {
	// With prefetchers on, higher memory latency converts DRAM stalls
	// into delayed hits at the caches (the paper's Figure 13 flow).
	run := func(lat float64) (cacheStalls, cycles float64) {
		m := newMachine(lat)
		for i := uint64(0); i < 100000; i++ {
			m.Load(i*mem.LineSize, false)
			m.Compute(6)
		}
		c := m.Counters()
		cacheStalls = c[counters.BoundOnLoads] - c[counters.StallsL3Miss]
		return cacheStalls, c[counters.Cycles]
	}
	localStall, localCycles := run(60)
	cxlStall, _ := run(350)
	if cxlStall <= localStall {
		t.Fatalf("cache stalls did not grow under CXL latency: local=%v cxl=%v (local cycles %v)",
			localStall, cxlStall, localCycles)
	}
}

func TestL2PFBudgetDropsUnderLatency(t *testing.T) {
	// The compute/load ratio puts line demand (~0.15 lines/ns) between
	// the streamer's issue capacity at local latency (12/60ns) and at
	// CXL latency (12/400ns) — the regime where latency costs coverage.
	run := func(lat float64) (dropped, l1pfMiss, l2pfMiss float64) {
		m := newMachine(lat)
		for i := uint64(0); i < 50000; i++ {
			m.Load(i*mem.LineSize, false)
			m.Compute(60)
		}
		c := m.Counters()
		return c[counters.L2PFDropped], c[counters.L1PFL3Miss], c[counters.L2PFL3Miss]
	}
	dLocal, _, l2Local := run(60)
	dCXL, l1CXL, l2CXL := run(400)
	if dCXL <= dLocal {
		t.Fatalf("L2PF drops did not increase with latency: %v -> %v", dLocal, dCXL)
	}
	if l2CXL >= l2Local {
		t.Fatalf("L2PF-L3-miss did not decrease under CXL: %v -> %v", l2Local, l2CXL)
	}
	if l1CXL == 0 {
		t.Fatal("L1PF never reached DRAM under CXL")
	}
}

func TestStoreBufferStalls(t *testing.T) {
	m := newMachine(300)
	m.cfg.PrefetchersOff = true
	r := sim.NewRand(3)
	for i := 0; i < 30000; i++ {
		m.Store(r.Uint64n((1<<30)/mem.LineSize) * mem.LineSize)
	}
	c := m.Counters()
	if c[counters.BoundOnStores] == 0 {
		t.Fatal("store blast never filled the store buffer")
	}
	if c[counters.BoundOnStores] < c[counters.Cycles]*0.3 {
		t.Fatalf("store-bound workload: P2 = %v of %v cycles", c[counters.BoundOnStores], c[counters.Cycles])
	}
}

func TestSerializeScoreboardStalls(t *testing.T) {
	// A fence after a store must wait for the store buffer to drain.
	m := newMachine(200)
	r := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		m.Store(r.Uint64n((1<<30)/mem.LineSize) * mem.LineSize)
		m.Serialize()
	}
	if m.Counters()[counters.StallsScoreboard] == 0 {
		t.Fatal("serializing ops produced no scoreboard stalls")
	}
}

func TestPortUtilCounters(t *testing.T) {
	m := newMachine(100)
	m.ComputeILP(10000, 1.0)
	m.ComputeILP(10000, 2.0)
	c := m.Counters()
	if c[counters.OnePortsUtil] == 0 || c[counters.TwoPortsUtil] == 0 {
		t.Fatalf("port-util counters not populated: P7=%v P8=%v",
			c[counters.OnePortsUtil], c[counters.TwoPortsUtil])
	}
}

func TestSampling(t *testing.T) {
	rec := &recordingSampler{}
	m := New(Config{CPU: testCPU(), Device: &fixedDev{lat: 200}, Sampler: rec, Cadence: EveryNs(1000)})
	r := sim.NewRand(7)
	for i := 0; i < 20000; i++ {
		m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, true)
	}
	if len(rec.times) < 10 {
		t.Fatalf("only %d samples", len(rec.times))
	}
	for i := 1; i < len(rec.times); i++ {
		if rec.times[i] <= rec.times[i-1] {
			t.Fatal("samples not time-ordered")
		}
		if rec.ctrs[i][counters.Cycles] < rec.ctrs[i-1][counters.Cycles] {
			t.Fatal("counter samples not monotone")
		}
	}
}

func TestDoneBudget(t *testing.T) {
	m := New(Config{CPU: testCPU(), Device: &fixedDev{lat: 100}, MaxInstructions: 100})
	for !m.Done() {
		m.Compute(10)
	}
	if m.Instructions() < 100 {
		t.Fatalf("stopped at %d instructions", m.Instructions())
	}
}

func TestRetiredStallsCoversComponents(t *testing.T) {
	m := newMachine(250)
	r := sim.NewRand(9)
	for i := 0; i < 10000; i++ {
		switch i % 4 {
		case 0, 1:
			m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, i%8 == 0)
		case 2:
			m.Store(r.Uint64n((1<<30)/mem.LineSize) * mem.LineSize)
		case 3:
			m.Compute(8)
		}
	}
	c := m.Counters()
	sum := c[counters.BoundOnLoads] + c[counters.BoundOnStores] + c[counters.StallsScoreboard]
	if diff := c[counters.RetiredStalls] - sum; diff > 1 || diff < -1 {
		t.Fatalf("P6 (%v) != P1+P2+P9 (%v)", c[counters.RetiredStalls], sum)
	}
}

// tickThread issues one read per interval, counting its steps.
type tickThread struct {
	interval float64
	dev      mem.Device
	steps    int
}

func (t *tickThread) Step(now float64) float64 {
	t.dev.Access(now, 0x1000, mem.DemandRead)
	t.steps++
	return now + t.interval
}

func TestContendedDeviceAdvancesSiblings(t *testing.T) {
	dev := &fixedDev{lat: 100}
	bg := &tickThread{interval: 50, dev: dev}
	cd := NewContendedDevice(dev, []traffic.Thread{bg})
	cd.Access(1000, 0, mem.DemandRead)
	// Background should have stepped ~20 times by t=1000.
	if bg.steps < 15 || bg.steps > 25 {
		t.Fatalf("background thread stepped %d times by t=1000, want ~20", bg.steps)
	}
	before := bg.steps
	cd.Access(1000, 64, mem.DemandRead)
	if bg.steps != before {
		t.Fatal("background advanced without time passing")
	}
	cd.Access(2000, 128, mem.DemandRead)
	if bg.steps <= before {
		t.Fatal("background did not advance with time")
	}
}

func TestContendedDeviceSharesContention(t *testing.T) {
	// A core sharing a real DRAM device with heavy background traffic
	// must run slower than alone.
	run := func(bgThreads int) float64 {
		p := platform.SKX2S()
		inner := p.LocalDevice()
		var threads []traffic.Thread
		for i := 0; i < bgThreads; i++ {
			g := traffic.NewLoadGenerator(inner, 64<<20, 1.0, uint64(i)+1)
			g.Base = uint64(i+4) << 30
			g.MLP = 16
			g.Sequential = true
			threads = append(threads, g)
		}
		dev := NewContendedDevice(inner, threads)
		m := New(Config{CPU: testCPU(), Device: dev, PrefetchersOff: true})
		r := sim.NewRand(1)
		for i := 0; i < 5000; i++ {
			m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, true)
		}
		return m.Counters()[counters.Cycles]
	}
	alone, contended := run(0), run(8)
	if contended <= alone*1.02 {
		t.Fatalf("contention had no effect: alone=%v contended=%v", alone, contended)
	}
}

func TestDirtyEvictionsReachDevice(t *testing.T) {
	// Store to far more lines than the hierarchy holds: dirty LLC
	// victims must generate device write traffic.
	dev := &fixedDev{lat: 150}
	m := New(Config{CPU: testCPU(), Device: dev})
	lines := uint64(testCPU().L3Bytes/mem.LineSize) * 2
	for i := uint64(0); i < lines; i++ {
		m.Store(i * mem.LineSize)
	}
	if dev.stats.Writes == 0 {
		t.Fatal("no writebacks reached the device")
	}
	// Roughly one writeback per dirty line beyond capacity.
	if float64(dev.stats.Writes) < float64(lines)*0.3 {
		t.Fatalf("only %d writebacks for %d dirty lines", dev.stats.Writes, lines)
	}
}

func TestStoreStreamTriggersPrefetch(t *testing.T) {
	m := newMachine(150)
	for i := uint64(0); i < 20000; i++ {
		m.Store(i * mem.LineSize)
	}
	c := m.Counters()
	if c[counters.L1PFIssued] == 0 && c[counters.L2PFIssued] == 0 {
		t.Fatal("sequential stores trained no prefetcher")
	}
}

func TestPreloadMakesResident(t *testing.T) {
	m := newMachine(300)
	const span = 8 << 20 // 8MB fits the SKX L3
	m.Preload(0, span)
	for i := uint64(0); i < 5000; i++ {
		m.Load((i*97%(span/mem.LineSize))*mem.LineSize, false)
	}
	c := m.Counters()
	if c[counters.DemandL3Miss] > 50 {
		t.Fatalf("preloaded range still missed LLC %v times", c[counters.DemandL3Miss])
	}
}

func TestPreloadRespectsCapacity(t *testing.T) {
	m := newMachine(300)
	// Try to preload 4x the LLC; the budget must clamp.
	m.Preload(0, uint64(testCPU().L3Bytes)*4)
	if m.preloaded > uint64(float64(testCPU().L3Bytes/mem.LineSize)*0.86) {
		t.Fatalf("preloaded %d lines, beyond the 85%% cap", m.preloaded)
	}
}

// recordingSampler collects every hook invocation.
type recordingSampler struct {
	times []float64
	ctrs  []counters.Snapshot
}

func (s *recordingSampler) Sample(timeNs float64, c counters.Snapshot) {
	s.times = append(s.times, timeNs)
	s.ctrs = append(s.ctrs, c)
}

func TestCycleSamplerHookCadence(t *testing.T) {
	const every = 5000
	rec := &recordingSampler{}
	m := New(Config{CPU: testCPU(), Device: &fixedDev{lat: 200},
		Sampler: rec, Cadence: EveryCycles(every)})
	r := sim.NewRand(7)
	for i := 0; i < 20000; i++ {
		m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, true)
	}
	if len(rec.times) < 10 {
		t.Fatalf("only %d hook samples", len(rec.times))
	}
	// Hook timestamps sit exactly on the cycle grid: k * every cycles.
	step := every / testCPU().FreqGHz // ns per sampling period
	for i, ts := range rec.times {
		want := float64(i+1) * step
		if diff := ts - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("sample %d at %v ns, want %v", i, ts, want)
		}
	}
	for i := 1; i < len(rec.ctrs); i++ {
		if rec.ctrs[i][counters.Cycles] < rec.ctrs[i-1][counters.Cycles] {
			t.Fatal("hook counters not monotone")
		}
	}
}

// oldLoops keeps the machine's two sampling loops from before they
// were folded into one cadence: a time series every intervalNs
// simulated ns, and a hook every everyCycles cycles whose step is
// float64(everyCycles) * (1 / FreqGHz). Each loop samples first at
// its step and then at next += step.
type oldLoops struct {
	intervalNs, hookStepNs float64
	nextNs, nextHookNs     float64
	ns, cycles             recordingSampler
}

func newOldLoops(cpu platform.CPU, intervalNs float64, everyCycles uint64) *oldLoops {
	nsPerCycle := 1 / cpu.FreqGHz
	o := &oldLoops{intervalNs: intervalNs, hookStepNs: float64(everyCycles) * nsPerCycle}
	o.nextNs, o.nextHookNs = o.intervalNs, o.hookStepNs
	return o
}

// observe runs both old loops at the machine's current retire time.
func (o *oldLoops) observe(m *Machine) {
	for m.retireNs >= o.nextNs {
		o.ns.Sample(o.nextNs, m.Counters())
		o.nextNs += o.intervalNs
	}
	for m.retireNs >= o.nextHookNs {
		o.cycles.Sample(o.nextHookNs, m.Counters())
		o.nextHookNs += o.hookStepNs
	}
}

// TestCadenceMatchesOldLoops requires the one cadence to sample at the
// same times, with the same counters, as the old ns and cycle loops, on
// every platform CPU — EMR2S' runs at 2.3 GHz, where 4600 cycles are
// not exactly 2000 ns. The old loops run after each op, so prefetchers
// are off: with them on, an op changes prefetch counters after the
// machine has sampled.
func TestCadenceMatchesOldLoops(t *testing.T) {
	for _, p := range platform.Platforms() {
		runs := map[bool]*recordingSampler{}
		for _, cad := range []Cadence{EveryNs(2000), EveryCycles(4600)} {
			rec := &recordingSampler{}
			runs[cad.Cycles] = rec
			m := New(Config{CPU: p.CPU, Device: &fixedDev{lat: 180}, PrefetchersOff: true,
				Sampler: rec, Cadence: cad})
			old := newOldLoops(p.CPU, 2000, 4600)
			r := sim.NewRand(5)
			for i := 0; i < 30_000; i++ {
				switch r.Uint64n(4) {
				case 0:
					m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, r.Uint64n(2) == 0)
				case 1:
					m.Store(r.Uint64n(1<<20) * mem.LineSize)
				case 2:
					m.ComputeILP(1+r.Uint64n(16), float64(1+r.Uint64n(4)))
				default:
					if r.Uint64n(50) == 0 {
						m.Serialize()
					}
				}
				old.observe(m)
			}
			want := &old.ns
			if cad.Cycles {
				want = &old.cycles
			}
			if len(want.times) < 50 {
				t.Fatalf("%s %v: only %d old-loop samples", p.CPU.Name, cad, len(want.times))
			}
			if !reflect.DeepEqual(rec, want) {
				t.Errorf("%s %v: %d samples differ from the old loop's %d", p.CPU.Name, cad, len(rec.times), len(want.times))
			}
		}
		if p.CPU.FreqGHz == 2.3 && runs[true].times[0] == runs[false].times[0] {
			t.Errorf("%s: 4600 cycles sampled at exactly 2000 ns", p.CPU.Name)
		}
	}
}

// TestCycleSamplerObservationOnly pins the invariant the whole sampling
// subsystem rests on: attaching a Sampler changes nothing about the run.
func TestCycleSamplerObservationOnly(t *testing.T) {
	run := func(hook Sampler) counters.Snapshot {
		cfg := Config{CPU: testCPU(), Device: &fixedDev{lat: 200}}
		if hook != nil {
			cfg.Sampler = hook
			cfg.Cadence = EveryCycles(2000)
		}
		m := New(cfg)
		r := sim.NewRand(3)
		for i := 0; i < 15000; i++ {
			switch i % 3 {
			case 0:
				m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, i%6 == 0)
			case 1:
				m.Store(r.Uint64n(1<<20) * mem.LineSize)
			case 2:
				m.Compute(5)
			}
		}
		return m.Counters()
	}
	plain, sampled := run(nil), run(&recordingSampler{})
	if plain != sampled {
		t.Fatalf("sampler perturbed the run:\nwithout: %v\nwith:    %v", plain, sampled)
	}
}

// TestDetachedSamplerZeroAlloc asserts the no-sampler hot path allocates
// nothing per access — the "zero overhead when detached" contract.
func TestDetachedSamplerZeroAlloc(t *testing.T) {
	m := newMachine(100)
	// Warm the L1 so steady-state loads stay on the fast path.
	for i := 0; i < 1024; i++ {
		m.Load(uint64(i%128)*mem.LineSize, false)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		m.Load(uint64(i%128)*mem.LineSize, false)
		i++
	})
	if allocs != 0 {
		t.Fatalf("detached load path allocates %.1f bytes-objects per op", allocs)
	}
}
