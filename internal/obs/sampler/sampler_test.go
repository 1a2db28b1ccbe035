package sampler

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/sim"
)

// drive runs a random-access workload over a CXL device on a machine
// with the given sampler attached, returning the final counters.
func drive(s *Sampler, dev *cxl.Device, every uint64) counters.Snapshot {
	cfg := core.Config{CPU: platform.SKX2S().CPU, Device: dev}
	if s != nil {
		cfg.Sampler = s
		cfg.Cadence = core.EveryCycles(every)
	}
	m := core.New(cfg)
	r := sim.NewRand(5)
	for i := 0; i < 30000; i++ {
		m.Load(r.Uint64n((1<<30)/mem.LineSize)*mem.LineSize, i%4 == 0)
	}
	return m.Counters()
}

func TestSamplerCollectsCPUAndDeviceState(t *testing.T) {
	dev := cxl.New(cxl.ProfileA(), 3)
	s := New(dev)
	drive(s, dev, 4000)

	samples := s.Samples()
	if len(samples) < 5 {
		t.Fatalf("only %d samples collected", len(samples))
	}
	for i, smp := range samples {
		if !smp.HasDevice {
			t.Fatalf("sample %d has no device state despite attached probe", i)
		}
		if smp.Device.TimeNs != smp.TimeNs {
			t.Fatalf("sample %d device probed at %v, counters at %v", i, smp.Device.TimeNs, smp.TimeNs)
		}
		if i == 0 {
			continue
		}
		if smp.TimeNs <= samples[i-1].TimeNs {
			t.Fatalf("sample %d not time-ordered", i)
		}
		if smp.Counters[counters.Instructions] < samples[i-1].Counters[counters.Instructions] {
			t.Fatalf("sample %d instruction count regressed", i)
		}
		if smp.Device.Requests < samples[i-1].Device.Requests {
			t.Fatalf("sample %d cumulative device requests regressed", i)
		}
	}
	// A pointer-heavy CXL workload must show device traffic.
	last := samples[len(samples)-1]
	if last.Device.Requests == 0 {
		t.Fatal("no device requests observed over a DRAM-missing workload")
	}
}

// TestSamplerObservationOnly is the subsystem's core contract at the
// integration level: the full sampler (CPU hook + device probe)
// changes nothing about the simulated run.
func TestSamplerObservationOnly(t *testing.T) {
	plain := drive(nil, cxl.New(cxl.ProfileB(), 3), 0)
	dev := cxl.New(cxl.ProfileB(), 3)
	sampled := drive(New(dev), dev, 2000)
	if plain != sampled {
		t.Fatalf("sampling perturbed results:\nwithout: %v\nwith:    %v", plain, sampled)
	}
}

func TestNilProbeSamplesCPUOnly(t *testing.T) {
	s := New(nil)
	s.Sample(100, counters.Snapshot{})
	if s.Samples()[0].HasDevice {
		t.Fatal("nil probe produced device state")
	}
}

func TestAppendCounterTracksSchema(t *testing.T) {
	mk := func(tNs, cycles float64, q int) Sample {
		var c counters.Snapshot
		c[counters.Cycles] = cycles
		c[counters.BoundOnLoads] = cycles / 2
		return Sample{TimeNs: tNs, Counters: c, HasDevice: true,
			Device: cxl.CPMUState{TimeNs: tNs, QueueDepth: q, ThermalActive: q > 1}}
	}
	samples := []Sample{mk(1000, 4000, 1), mk(2000, 9000, 2)}

	tr := obs.NewTrace()
	AppendCounterTracks(tr, 7, samples, 100, 300)
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}

	want := map[string]int{}
	for _, n := range SpaTrackNames() {
		want[n] = 2
	}
	for _, n := range CPMUTrackNames {
		want[n] = 2
	}
	got := map[string]int{}
	for _, e := range f.TraceEvents {
		if e.Ph != "C" {
			t.Fatalf("event %q has phase %q, want C", e.Name, e.Ph)
		}
		if e.Pid != 7 {
			t.Fatalf("event %q on pid %d, want 7", e.Name, e.Pid)
		}
		if e.Ts < 100 || e.Ts > 300 {
			t.Fatalf("event %q at ts %v, outside mapped span [100, 300]", e.Name, e.Ts)
		}
		got[e.Name]++
		// Spa tracks carry per-interval deltas.
		if e.Name == SpaTrackName(counters.Cycles) {
			t.Fatal("non-Spa counter emitted as a track")
		}
		if e.Name == "spa/BOUND_ON_LOADS" && e.Ts > 250 {
			if v := e.Args["value"].(float64); v != 9000/2-4000/2 {
				t.Fatalf("second BOUND_ON_LOADS delta %v, want 2500", v)
			}
		}
	}
	for n, c := range want {
		if got[n] != c {
			t.Fatalf("track %q has %d samples, want %d (all: %v)", n, got[n], c, got)
		}
	}
	// The last sample lands exactly on the span end.
	if last := f.TraceEvents[len(f.TraceEvents)-1].Ts; last != 300 {
		t.Fatalf("final sample at %v, want 300", last)
	}
}

func TestAppendCounterTracksNilAndEmpty(t *testing.T) {
	AppendCounterTracks(nil, 1, []Sample{{TimeNs: 1}}, 0, 1)
	tr := obs.NewTrace()
	AppendCounterTracks(tr, 1, nil, 0, 1)
	if tr.Len() != 0 {
		t.Fatal("empty series emitted events")
	}
}

func TestWriteCSV(t *testing.T) {
	dev := cxl.New(cxl.ProfileA(), 3)
	s := New(dev)
	drive(s, dev, 4000)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, s.Samples()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) != len(s.Samples())+1 {
		t.Fatalf("%d CSV rows for %d samples", len(rows), len(s.Samples()))
	}
	wantCols := 1 + int(counters.NumCounters) + len(csvCPMUColumns)
	for i, r := range rows {
		if len(r) != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), wantCols)
		}
	}
	if rows[0][0] != "time_ns" || rows[0][1] != counters.ID(0).String() {
		t.Fatalf("header starts %v", rows[0][:2])
	}
}
