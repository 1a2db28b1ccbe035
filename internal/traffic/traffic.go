// Package traffic simulates concurrent closed-loop memory threads
// sharing a device — the substrate for the MLC-style loaded-latency
// harness and the MIO tail-latency microbenchmark. Threads are state
// machines woken in timestamp order; contention emerges from the shared
// time-driven device.
package traffic

import (
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// Thread is one simulated hardware thread. Step performs the thread's
// next burst of work starting at now and returns when it should run
// again. Returning a wake time that is not later than now (NaN
// included) stops the thread; a thread that returns +Inf is never
// stepped again before any finite deadline.
type Thread interface {
	Step(now float64) (nextWake float64)
}

// Run interleaves threads in wake-time order until the simulated clock
// passes untilNs. It returns the final clock value.
func Run(threads []Thread, untilNs float64) float64 {
	return NewScheduler(threads).Advance(untilNs)
}

// Scheduler steps threads in wake-time order, the lower index first on
// a tie. Every thread first wakes at 0. Live threads sit in a binary
// min-heap on (wake, index), so a step re-sifts only the top entry and
// picks exactly the thread a lowest-index-wins scan would.
type Scheduler struct {
	threads []Thread
	heap    []wakeAt
	now     float64
}

// wakeAt is one live thread and the time it next wakes.
type wakeAt struct {
	wake float64
	i    int
}

// NewScheduler schedules threads, each first woken at 0.
func NewScheduler(threads []Thread) *Scheduler {
	s := &Scheduler{threads: threads, heap: make([]wakeAt, len(threads))}
	s.Reset()
	return s
}

// Reset revives every thread with wake time 0 and sets the clock to 0.
// Thread state itself is external.
func (s *Scheduler) Reset() {
	s.heap = s.heap[:len(s.threads)]
	for i := range s.heap {
		s.heap[i] = wakeAt{0, i}
	}
	s.now = 0
}

// Advance steps threads until every live thread wakes after untilNs and
// returns the clock: the wake time of the last step taken so far.
func (s *Scheduler) Advance(untilNs float64) float64 {
	for len(s.heap) > 0 && s.heap[0].wake <= untilNs {
		top := &s.heap[0]
		s.now = top.wake
		next := s.threads[top.i].Step(s.now)
		if !(next > s.now) {
			last := len(s.heap) - 1
			*top = s.heap[last]
			s.heap = s.heap[:last]
		} else {
			top.wake = next
		}
		s.down()
	}
	return s.now
}

// less orders entries by wake time, then by thread index.
func (a wakeAt) less(b wakeAt) bool {
	return a.wake < b.wake || a.wake == b.wake && a.i < b.i
}

// down restores the heap order after the top entry changed.
func (s *Scheduler) down() {
	h := s.heap
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// PointerChaser performs dependent loads: each access's completion gates
// the next. It optionally records per-access latency (averaged over
// BatchN accesses, mirroring MIO's rdtsc-amortization).
type PointerChaser struct {
	Dev        mem.Device
	WorkingSet uint64  // bytes; addresses are drawn line-aligned inside it
	Base       uint64  // base address of the working set
	ComputeNs  float64 // delay between dependent accesses
	BatchN     int     // average every BatchN accesses (0 or 1 = raw)
	Record     bool

	Latencies []float64
	Count     uint64

	rng      *sim.Rand
	batchSum float64
	batchCnt int
}

// NewPointerChaser builds a chaser over a working set.
func NewPointerChaser(dev mem.Device, workingSet uint64, seed uint64) *PointerChaser {
	return &PointerChaser{Dev: dev, WorkingSet: workingSet, rng: sim.NewRand(seed)}
}

// Step implements Thread.
func (p *PointerChaser) Step(now float64) float64 {
	lines := p.WorkingSet / mem.LineSize
	addr := p.Base + p.rng.Uint64n(lines)*mem.LineSize
	done := p.Dev.Access(now, addr, mem.DemandRead)
	lat := done - now
	p.Count++
	if p.Record {
		if p.BatchN > 1 {
			p.batchSum += lat
			p.batchCnt++
			if p.batchCnt == p.BatchN {
				p.Latencies = append(p.Latencies, p.batchSum/float64(p.BatchN))
				p.batchSum, p.batchCnt = 0, 0
			}
		} else {
			p.Latencies = append(p.Latencies, lat)
		}
	}
	return done + p.ComputeNs
}

// LoadGenerator issues independent (non-dependent) reads and/or writes,
// keeping up to MLP requests in flight like an out-of-order core's fill
// buffers — the model of MLC's traffic threads with injected compute
// delays.
type LoadGenerator struct {
	Dev        mem.Device
	WorkingSet uint64
	Base       uint64
	ReadFrac   float64 // fraction of requests that are reads
	MLP        int     // maximum outstanding requests
	DelayNs    float64 // injected delay between accesses ("0-20K cycles")
	Sequential bool    // streaming (row-friendly) vs random addresses

	Bytes  float64 // payload bytes moved (64 per request)
	Reads  uint64
	Writes uint64

	rng      *sim.Rand
	cursor   uint64
	inflight *sim.TimeHeap
}

// NewLoadGenerator builds a generator with sane defaults (MLP 4, random).
func NewLoadGenerator(dev mem.Device, workingSet uint64, readFrac float64, seed uint64) *LoadGenerator {
	return &LoadGenerator{
		Dev: dev, WorkingSet: workingSet, ReadFrac: readFrac,
		MLP: 4, rng: sim.NewRand(seed), inflight: &sim.TimeHeap{},
	}
}

// issue sends one request at now.
func (g *LoadGenerator) issue(now float64) {
	lines := g.WorkingSet / mem.LineSize
	var addr uint64
	if g.Sequential {
		addr = g.Base + (g.cursor%lines)*mem.LineSize
		g.cursor++
	} else {
		addr = g.Base + g.rng.Uint64n(lines)*mem.LineSize
	}
	// Randomized read/write choice: a deterministic repeating pattern
	// would correlate with channel interleaving (e.g. every 4th line on
	// a fixed channel), creating artificial single-direction channels.
	kind := mem.Write
	if g.rng.Bool(g.ReadFrac) {
		kind = mem.DemandRead
	}
	done := g.Dev.Access(now, addr, kind)
	if kind == mem.Write {
		g.Writes++
	} else {
		g.Reads++
	}
	g.Bytes += mem.LineSize
	g.inflight.Push(done)
}

// Step implements Thread: retire completions due by now, refill the
// in-flight window, and wake when the next slot frees (or after the
// injected delay, whichever is later).
func (g *LoadGenerator) Step(now float64) float64 {
	mlp := g.MLP
	if mlp < 1 {
		mlp = 1
	}
	for g.inflight.Len() > 0 && g.inflight.Min() <= now {
		g.inflight.PopMin()
	}
	toIssue := mlp - g.inflight.Len()
	if g.DelayNs > 0 && toIssue > 1 {
		// With injected compute delay the thread paces one access per
		// delay interval, mirroring MLC's load-delay-load loop.
		toIssue = 1
	}
	for i := 0; i < toIssue; i++ {
		g.issue(now)
	}
	wake := now + g.DelayNs
	if g.inflight.Len() >= mlp && g.inflight.Min() > wake {
		wake = g.inflight.Min()
	}
	if wake <= now {
		wake = g.inflight.Min()
	}
	return wake
}
