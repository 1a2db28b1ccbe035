package cxl

import (
	"math"
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/sim"
)

// latencyHist records each observed access's device-internal latency,
// the sum of its CPMU components, the way melody's cpmu report does.
type latencyHist struct{ *obs.Histogram }

func (h latencyHist) ObserveAccess(a mem.AccessObservation) {
	h.Record(a.LinkReqNs + a.SchedWaitNs + a.MediaNs + a.LinkRspNs)
}

// TestCPMUDisabledByDefault checks what replaced the enable bit: the
// CPMU is always on, so a new device reads zero and counts from its
// first access with nothing switched on.
func TestCPMUDisabledByDefault(t *testing.T) {
	d := New(ProfileB(), 1)
	if d.PMU().Requests != 0 {
		t.Fatal("new device's CPMU is not zero")
	}
	d.Access(0, 0, mem.DemandRead)
	d.Access(10, 64, mem.Write)
	if p := d.PMU(); p.Requests != 2 || p.Writes != 1 {
		t.Fatalf("CPMU counted %d requests, %d writes; want 2, 1", p.Requests, p.Writes)
	}
}

func TestCPMUBreakdownSumsToLatency(t *testing.T) {
	p := quietProfile()
	d := New(p, 1)
	now := 0.0
	r := sim.NewRand(3)
	var totalLat float64
	const n = 2000
	for i := 0; i < n; i++ {
		done := d.Access(now, r.Uint64n(1<<32), mem.DemandRead)
		totalLat += done - now
		now = done + 50
	}
	pmu := d.PMU()
	if pmu.Requests != n {
		t.Fatalf("CPMU recorded %d requests, want %d", pmu.Requests, n)
	}
	sum := pmu.LinkReqNs + pmu.SchedWaitNs + pmu.MediaNs + pmu.LinkRspNs
	if math.Abs(sum-totalLat) > 1 {
		t.Fatalf("component sum %.1f != total latency %.1f", sum, totalLat)
	}
	lr, sw, md, lp := pmu.Breakdown()
	if lr <= 0 || sw <= 0 || md <= 0 || lp <= 0 {
		t.Fatalf("breakdown has empty components: %v %v %v %v", lr, sw, md, lp)
	}
}

func TestCPMUAttributesHiccups(t *testing.T) {
	p := ProfileB()
	p.Link.RetryProb = 0
	p.MC.ThermalThreshold = 0
	d := New(p, 3)
	lat := latencyHist{obs.NewHistogram()}
	d.SetObserver(lat)
	now := 0.0
	r := sim.NewRand(9)
	for i := 0; i < 50_000; i++ {
		done := d.Access(now, r.Uint64n(1<<32), mem.DemandRead)
		now = done
	}
	pmu := d.PMU()
	if pmu.HiccupStalls == 0 {
		t.Fatal("CPMU saw no hiccup stalls on CXL-B")
	}
	// The white-box view: tail latency comes from scheduler wait, not
	// media (the paper's hypothesized root cause).
	if gap := lat.Percentile(99.9) - lat.Percentile(50); gap < 100 {
		t.Fatalf("CPMU tail gap %.0f too small for CXL-B", gap)
	}
}

func TestCPMUPercentilesOrdered(t *testing.T) {
	d := New(ProfileC(), 1)
	lat := latencyHist{obs.NewHistogram()}
	d.SetObserver(lat)
	now := 0.0
	r := sim.NewRand(5)
	for i := 0; i < 10_000; i++ {
		done := d.Access(now, r.Uint64n(1<<30), mem.DemandRead)
		now = done
	}
	if !(lat.Percentile(50) <= lat.Percentile(99) && lat.Percentile(99) <= lat.Percentile(99.9)) {
		t.Fatal("CPMU percentiles not ordered")
	}
	if d.PMU().String() == "" {
		t.Fatal("empty CPMU string")
	}
}

// TestCPMUSurvivesResetPolicy checks that Reset clears the counters and
// that counting resumes at the next access with nothing re-armed.
func TestCPMUSurvivesResetPolicy(t *testing.T) {
	d := New(quietProfile(), 1)
	d.Access(0, 0, mem.DemandRead)
	d.Reset()
	if *d.PMU() != (CPMU{}) {
		t.Fatalf("Reset did not clear CPMU counters: %+v", *d.PMU())
	}
	d.Access(0, 0, mem.DemandRead)
	if d.PMU().Requests != 1 {
		t.Fatal("CPMU stopped counting after Reset")
	}
}
