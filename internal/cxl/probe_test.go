package cxl

import (
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// TestProbeDoesNotPerturbTiming pins the state probe's contract: every
// access completes at the same simulated time with the probe armed or
// not, including interleaved ProbeState reads.
func TestProbeDoesNotPerturbTiming(t *testing.T) {
	run := func(probe bool) []float64 {
		d := New(ProfileB(), 7)
		if probe {
			d.EnableStateProbe()
		}
		r := sim.NewRand(11)
		now := 0.0
		var done []float64
		for i := 0; i < 3000; i++ {
			kind := mem.DemandRead
			if i%5 == 0 {
				kind = mem.Write
			}
			c := d.Access(now, r.Uint64n(1<<32), kind)
			done = append(done, c)
			if probe && i%100 == 99 {
				d.ProbeState(now)
			}
			now += 30
		}
		return done
	}
	plain, probed := run(false), run(true)
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("access %d: completion %.3f with probe vs %.3f without", i, probed[i], plain[i])
		}
	}
}

func TestProbeStateTracksQueueAndBandwidth(t *testing.T) {
	d := New(ProfileB(), 1)
	d.EnableStateProbe()
	r := sim.NewRand(5)

	// Issue a burst of back-to-back reads at t=0; their completions all
	// lie in the future, so the queue is occupied just after issue.
	for i := 0; i < 16; i++ {
		d.Access(0, r.Uint64n(1<<32), mem.DemandRead)
	}
	s := d.ProbeState(1)
	if s.QueueDepth == 0 {
		t.Fatal("burst in flight but queue depth 0")
	}
	if s.ReadGBs <= 0 {
		t.Fatalf("read bandwidth %.3f after a read burst", s.ReadGBs)
	}
	if s.WriteGBs != 0 {
		t.Fatalf("write bandwidth %.3f with no writes", s.WriteGBs)
	}
	if s.Requests != 16 {
		t.Fatalf("cumulative requests %d, want 16", s.Requests)
	}

	// Far in the future everything has drained and the window carried
	// no new traffic.
	s2 := d.ProbeState(1e9)
	if s2.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", s2.QueueDepth)
	}
	if s2.ReadGBs != 0 || s2.WriteGBs != 0 {
		t.Fatalf("idle window reports bandwidth %f/%f", s2.ReadGBs, s2.WriteGBs)
	}
	if s2.LinkCreditsInFlight != 0 {
		t.Fatalf("credits in flight %d after drain", s2.LinkCreditsInFlight)
	}
}

// TestProbeCumulativeMatchesCPMU checks that a probe copies the CPMU
// counters exactly, and that the counters are the ones an unprobed twin
// device keeps: arming the probe does not switch counting on.
func TestProbeCumulativeMatchesCPMU(t *testing.T) {
	d, twin := New(ProfileA(), 2), New(ProfileA(), 2)
	d.EnableStateProbe()
	r := sim.NewRand(9)
	now := 0.0
	for i := 0; i < 500; i++ {
		addr := r.Uint64n(1 << 30)
		twin.Access(now, addr, mem.DemandRead)
		now = d.Access(now, addr, mem.DemandRead) + 20
	}
	s := d.ProbeState(now)
	pmu := d.PMU()
	if s.LinkReqNs != pmu.LinkReqNs || s.SchedWaitNs != pmu.SchedWaitNs ||
		s.MediaNs != pmu.MediaNs || s.LinkRspNs != pmu.LinkRspNs {
		t.Fatalf("probe component copy diverges from CPMU: %+v vs %+v", s, pmu)
	}
	if s.HiccupStalls != pmu.HiccupStalls || s.ThermalStalls != pmu.ThermalStalls || s.Requests != pmu.Requests {
		t.Fatal("probe governor counts diverge from CPMU")
	}
	if *pmu != *twin.PMU() {
		t.Fatalf("probed CPMU %+v differs from unprobed %+v", *pmu, *twin.PMU())
	}
}

func TestProbeSurvivesReset(t *testing.T) {
	d := New(ProfileB(), 1)
	d.EnableStateProbe()
	d.Access(0, 64, mem.DemandRead)
	d.Reset()
	if s := d.ProbeState(0); s.QueueDepth != 0 || s.Requests != 0 {
		t.Fatalf("reset left probe state behind: %+v", s)
	}
	d.Access(0, 64, mem.DemandRead)
	if s := d.ProbeState(1); s.Requests != 1 {
		t.Fatal("probe disarmed by Reset")
	}
}

// TestComponentDeltaDifferencesAccumulators pins that differencing two
// probes yields exactly the component time added between them, and
// that the split covers the interval's total device-resident time.
func TestComponentDeltaDifferencesAccumulators(t *testing.T) {
	d := New(ProfileB(), 3)
	d.EnableStateProbe()
	r := sim.NewRand(9)

	now := 0.0
	for i := 0; i < 500; i++ {
		d.Access(now, r.Uint64n(1<<30), mem.DemandRead)
		now += 25
	}
	a := d.ProbeState(now)
	for i := 0; i < 500; i++ {
		d.Access(now, r.Uint64n(1<<30), mem.DemandRead)
		now += 25
	}
	b := d.ProbeState(now)

	lr, sw, md, rs := b.ComponentDelta(a)
	for name, v := range map[string]float64{"linkReq": lr, "media": md, "linkRsp": rs} {
		if v <= 0 {
			t.Fatalf("%s delta = %v, want > 0 after 500 accesses", name, v)
		}
	}
	if sw < 0 {
		t.Fatalf("schedWait delta = %v, want >= 0", sw)
	}
	wantLR := b.LinkReqNs - a.LinkReqNs
	if lr != wantLR {
		t.Fatalf("linkReq delta = %v, want %v", lr, wantLR)
	}
	wantTotal := (b.LinkReqNs + b.SchedWaitNs + b.MediaNs + b.LinkRspNs) -
		(a.LinkReqNs + a.SchedWaitNs + a.MediaNs + a.LinkRspNs)
	if got := lr + sw + md + rs; got != wantTotal {
		t.Fatalf("component deltas sum to %v, want %v", got, wantTotal)
	}

	// Differencing against the zero state recovers the cumulative view.
	zlr, _, _, _ := a.ComponentDelta(CPMUState{})
	if zlr != a.LinkReqNs {
		t.Fatalf("delta from zero state = %v, want cumulative %v", zlr, a.LinkReqNs)
	}
}

// BenchmarkCXLAccess times one synthetic CXL-B demand read issued 5 ns
// after the previous one, with the state probe off and on. The
// difference is what a sampled cell pays per device access.
func BenchmarkCXLAccess(b *testing.B) {
	for _, probe := range []bool{false, true} {
		name := "probe=off"
		if probe {
			name = "probe=on"
		}
		b.Run(name, func(b *testing.B) {
			d := New(ProfileB(), 1)
			if probe {
				d.EnableStateProbe()
			}
			r := sim.NewRand(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Access(float64(i+1)*5, r.Uint64n(1<<30)&^(mem.LineSize-1), mem.DemandRead)
			}
		})
	}
}
