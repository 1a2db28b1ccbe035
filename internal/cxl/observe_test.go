package cxl

import (
	"math"
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/sim"
)

// obsRecorder collects observations for attribution tests.
type obsRecorder struct {
	got []mem.AccessObservation
}

func (r *obsRecorder) ObserveAccess(a mem.AccessObservation) { r.got = append(r.got, a) }

func TestDeviceAccessDisabledPathZeroAlloc(t *testing.T) {
	// The telemetry contract: with no observer attached and the state
	// probe off (the default state), the device hot path must not
	// allocate.
	d := New(ProfileB(), 1)
	r := sim.NewRand(2)
	now := 0.0
	allocs := testing.AllocsPerRun(10_000, func() {
		done := d.Access(now, r.Uint64n(1<<32), mem.DemandRead)
		now = done
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f/access, want 0", allocs)
	}
}

func TestCPMUHistogramNeverTruncates(t *testing.T) {
	// Regression test for the sample-cap bias: a raw []float64 of
	// latencies once stopped at 262144 samples, so long runs computed
	// percentiles over the warmup prefix only. A log-bucketed histogram
	// fed by the device's observer must cover every request.
	const n = 300_000 // > the old 262144 cap
	d := New(quietProfile(), 1)
	lat := latencyHist{obs.NewHistogram()}
	d.SetObserver(lat)
	now := 0.0
	r := sim.NewRand(4)
	for i := 0; i < n; i++ {
		done := d.Access(now, r.Uint64n(1<<32), mem.DemandRead)
		now = done + 10
	}
	pmu := d.PMU()
	if pmu.Requests != n {
		t.Fatalf("CPMU recorded %d requests, want %d", pmu.Requests, n)
	}
	if got := lat.Count(); got != n {
		t.Fatalf("latency histogram holds %d samples, want all %d", got, n)
	}
	if p := lat.Percentile(99.9); math.IsNaN(p) || p <= 0 {
		t.Fatalf("p99.9 = %v", p)
	}
}

func TestObserverReceivesAttributedComponents(t *testing.T) {
	d := New(quietProfile(), 1)
	rec := &obsRecorder{}
	d.SetObserver(rec)
	now := 0.0
	r := sim.NewRand(6)
	const n = 1000
	for i := 0; i < n; i++ {
		done := d.Access(now, r.Uint64n(1<<32), mem.DemandRead)
		now = done + 20
	}
	if len(rec.got) != n {
		t.Fatalf("observer saw %d accesses, want %d", len(rec.got), n)
	}
	for i, a := range rec.got {
		if !a.Attributed {
			t.Fatalf("access %d not attributed (CXL device must attribute natively)", i)
		}
		sum := a.LinkReqNs + a.SchedWaitNs + a.MediaNs + a.LinkRspNs
		if math.Abs(sum-a.Latency()) > 1e-6 {
			t.Fatalf("access %d: components sum to %.3f, latency %.3f", i, sum, a.Latency())
		}
	}
}

func TestObserverDoesNotPerturbTiming(t *testing.T) {
	// Two identical devices, same access stream; one observed, one not.
	// Completion times must match exactly — observation is read-only.
	a := New(ProfileB(), 7)
	b := New(ProfileB(), 7)
	b.SetObserver(&obsRecorder{})
	ra, rb := sim.NewRand(8), sim.NewRand(8)
	nowA, nowB := 0.0, 0.0
	for i := 0; i < 20_000; i++ {
		kind := mem.DemandRead
		if i%7 == 0 {
			kind = mem.Write
		}
		da := a.Access(nowA, ra.Uint64n(1<<32), kind)
		db := b.Access(nowB, rb.Uint64n(1<<32), kind)
		if da != db {
			t.Fatalf("access %d: observed device diverged (%.6f != %.6f)", i, db, da)
		}
		nowA, nowB = da, db
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

func TestObserverSurvivesReset(t *testing.T) {
	d := New(quietProfile(), 1)
	rec := &obsRecorder{}
	d.SetObserver(rec)
	d.Reset()
	d.Access(0, 0, mem.DemandRead)
	if len(rec.got) != 1 {
		t.Fatal("Reset detached the observer")
	}
	d.SetObserver(nil)
	d.Access(1000, 0, mem.DemandRead)
	if len(rec.got) != 1 {
		t.Fatal("SetObserver(nil) did not detach")
	}
}
