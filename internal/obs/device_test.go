package obs

import (
	"math"
	"reflect"
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

func TestDeviceObserverAttributed(t *testing.T) {
	o := NewDeviceObserver()
	o.ObserveAccess(mem.AccessObservation{
		Kind: mem.DemandRead, Start: 100, Done: 420,
		LinkReqNs: 40, SchedWaitNs: 80, MediaNs: 150, LinkRspNs: 50,
		Attributed: true, Hiccup: true,
	})
	o.ObserveAccess(mem.AccessObservation{
		Kind: mem.Write, Start: 500, Done: 900,
		LinkReqNs: 40, SchedWaitNs: 160, MediaNs: 150, LinkRspNs: 50,
		Attributed: true, Thermal: true,
	})
	if n := o.Latency.Export().Count; n != 2 {
		t.Fatalf("latency count = %d", n)
	}
	if o.Media.Export().Count != 2 || o.SchedWait.Export().Count != 2 {
		t.Fatal("component histograms not populated for attributed accesses")
	}

	reg := NewRegistry()
	o.MergeInto(reg, "device/EMR2S/CXL-A")
	s := reg.Export()
	for _, name := range []string{
		"device/EMR2S/CXL-A/latency_ns",
		"device/EMR2S/CXL-A/link_req_ns",
		"device/EMR2S/CXL-A/sched_wait_ns",
		"device/EMR2S/CXL-A/media_ns",
		"device/EMR2S/CXL-A/link_rsp_ns",
	} {
		if _, ok := s.Histograms[name]; !ok {
			t.Fatalf("registry missing histogram %q", name)
		}
	}
	if s.Counters["device/EMR2S/CXL-A/reads"] != 1 || s.Counters["device/EMR2S/CXL-A/writes"] != 1 {
		t.Fatalf("read/write counters wrong: %v", s.Counters)
	}
	if s.Counters["device/EMR2S/CXL-A/hiccup_stalls"] != 1 || s.Counters["device/EMR2S/CXL-A/thermal_stalls"] != 1 {
		t.Fatalf("stall counters wrong: %v", s.Counters)
	}
}

func TestDeviceObserverUnattributed(t *testing.T) {
	o := NewDeviceObserver()
	for i := 0; i < 10; i++ {
		o.ObserveAccess(mem.AccessObservation{Kind: mem.DemandRead, Start: 0, Done: 95})
	}
	if n := o.Latency.Export().Count; n != 10 {
		t.Fatalf("latency count = %d", n)
	}
	if o.LinkReq.Export().Count != 0 {
		t.Fatal("unattributed access leaked into component histogram")
	}
	reg := NewRegistry()
	o.MergeInto(reg, "device/EMR2S/Local")
	s := reg.Export()
	if _, ok := s.Histograms["device/EMR2S/Local/latency_ns"]; !ok {
		t.Fatal("latency histogram missing")
	}
	if _, ok := s.Histograms["device/EMR2S/Local/link_req_ns"]; ok {
		t.Fatal("component histogram created for a device with no attribution")
	}
	if _, ok := s.Counters["device/EMR2S/Local/hiccup_stalls"]; ok {
		t.Fatal("stall counter created for a device with no attribution")
	}
}

func TestDeviceObserverNilMerge(t *testing.T) {
	var o *DeviceObserver
	o.MergeInto(NewRegistry(), "x") // no-op, no panic
	NewDeviceObserver().MergeInto(nil, "x")
}

// TestDeviceObserverMatchesLockedRecord feeds a DeviceObserver a fixed
// stream of observations, some with non-finite components, and
// requires each of its histograms to export exactly like one filled
// through the locked Record.
func TestDeviceObserverMatchesLockedRecord(t *testing.T) {
	r := sim.NewRand(17)
	o := NewDeviceObserver()
	want := [5]*Histogram{NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 20_000; i++ {
		start := r.Float64() * 1e6
		a := mem.AccessObservation{
			Kind: mem.Kind(r.Intn(3)), Start: start, Done: start + r.Exp(300),
			LinkReqNs: r.Exp(40), SchedWaitNs: r.Pareto(1, 1.5) - 1, MediaNs: r.Exp(120), LinkRspNs: r.Exp(40),
			Attributed: i%4 != 0, Hiccup: i%7 == 0,
		}
		switch i % 500 {
		case 1:
			a.SchedWaitNs = math.NaN()
		case 2:
			a.MediaNs = math.Inf(1)
		case 3:
			a.LinkReqNs = 0
		}
		o.ObserveAccess(a)
		want[0].Record(a.Latency())
		if a.Attributed {
			for k, v := range []float64{a.LinkReqNs, a.SchedWaitNs, a.MediaNs, a.LinkRspNs} {
				want[k+1].Record(v)
			}
		}
	}
	for k, got := range []*Histogram{o.Latency, o.LinkReq, o.SchedWait, o.Media, o.LinkRsp} {
		if !reflect.DeepEqual(got.Export(), want[k].Export()) {
			t.Fatalf("histogram %d: Export differs from locked Record", k)
		}
	}
}

// BenchmarkDeviceObserve times one attributed observation, which
// records into all five of the observer's histograms.
func BenchmarkDeviceObserve(b *testing.B) {
	r := sim.NewRand(1)
	obs := make([]mem.AccessObservation, 4096)
	for i := range obs {
		start := r.Float64() * 1e6
		obs[i] = mem.AccessObservation{
			Kind: mem.DemandRead, Start: start, Done: start + 200 + r.Exp(150),
			LinkReqNs: 20 + r.Exp(10), SchedWaitNs: r.Exp(30), MediaNs: 60 + r.Exp(40), LinkRspNs: 20 + r.Exp(10),
			Attributed: true,
		}
	}
	o := NewDeviceObserver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ObserveAccess(obs[i%len(obs)])
	}
}
