package melody

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/spa"
	"github.com/moatlab/melody/internal/workload"
)

// profileCells runs a small sampled grid and returns the telemetry.
func profileCells(t *testing.T, workers int) *Telemetry {
	t.Helper()
	RegisterWorkloads()
	p := platform.SKX2S()
	specs := samplingSpecs(t, "605.mcf_s", "micro-chase-256m")
	tel := NewTelemetry()
	r := fastRunner(p)
	r.Workers = workers
	r.Obs = tel
	r.Cadence = core.EveryCycles(20_000)
	if _, err := r.RunAll(context.Background(), Cells(specs, Local(p), CXL(p, cxl.ProfileB()))); err != nil {
		t.Fatal(err)
	}
	return tel
}

// TestProfileReconcilesWithCounters pins the acceptance criterion:
// total sim_cycles across a cell's profile samples equals the cell's
// cumulative cycle counter at the last sample — i.e. the Spa counter
// totals within one sampling interval of the run's end — and sim_ns
// likewise reconciles with the sampled simulated time.
func TestProfileReconcilesWithCounters(t *testing.T) {
	RegisterWorkloads()
	p := platform.SKX2S()
	spec, ok := workload.ByName("micro-chase-256m")
	if !ok {
		t.Fatal("micro-chase-256m not in catalog")
	}
	r := fastRunner(p)
	r.Cadence = core.EveryCycles(20_000)
	res := must(r.RunCtx(context.Background(), RunRequest{Spec: spec, Config: CXL(p, cxl.ProfileB())}))
	if len(res.Samples) == 0 {
		t.Fatal("no sampled stream")
	}

	b := NewProfileBuilder()
	AddCellProfile(b, res.Workload, p.CPU.Name, res.Config, res.Samples)

	last := res.Samples[len(res.Samples)-1]
	wantCycles := last.Counters[counters.Cycles]
	if got := b.Total(0); math.Abs(got-wantCycles) > 1e-6*wantCycles {
		t.Fatalf("profile sim_cycles total %v, want %v (last-sample cycle counter)", got, wantCycles)
	}
	if got := b.Total(1); math.Abs(got-last.TimeNs) > 1e-6*last.TimeNs {
		t.Fatalf("profile sim_ns total %v, want %v (last-sample sim time)", got, last.TimeNs)
	}
	// The profiled span covers warmup plus most of the measurement
	// window, so it must dominate the measurement delta alone.
	if b.Total(0) < res.Delta[counters.Cycles] {
		t.Fatalf("profile total %v below measurement-window cycles %v", b.Total(0), res.Delta[counters.Cycles])
	}
}

// TestProfileHasDeviceFrames: a CXL cell's DRAM-bound stall cycles
// must refine into the expander's component frames, and the stacks
// must follow the workload → platform → source → level → component
// hierarchy with the config attached as a pprof label.
func TestProfileHasDeviceFrames(t *testing.T) {
	RegisterWorkloads()
	p := platform.SKX2S()
	spec, ok := workload.ByName("micro-chase-256m")
	if !ok {
		t.Fatal("micro-chase-256m not in catalog")
	}
	r := fastRunner(p)
	r.Cadence = core.EveryCycles(20_000)
	res := must(r.RunCtx(context.Background(), RunRequest{Spec: spec, Config: CXL(p, cxl.ProfileB())}))

	prof := BuildProfile([]SampledSeries{{
		Workload: res.Workload, Config: res.Config, Platform: p.CPU.Name,
		Samples: res.Samples,
	}})
	if len(prof.Samples) == 0 {
		t.Fatal("profile has no samples")
	}

	devNames := map[string]bool{}
	for _, n := range spa.DeviceComponentNames() {
		devNames[n] = true
	}
	var deviceLeaves int
	for _, s := range prof.Samples {
		if s.Stack[0] != res.Workload || s.Stack[1] != p.CPU.Name {
			t.Fatalf("stack roots = %v, want workload then platform", s.Stack[:2])
		}
		if len(s.Labels) != 1 || s.Labels[0].Key != "config" || s.Labels[0].Str != res.Config {
			t.Fatalf("labels = %v, want config=%s", s.Labels, res.Config)
		}
		leaf := s.Stack[len(s.Stack)-1]
		if devNames[leaf] {
			deviceLeaves++
			if len(s.Stack) != 5 {
				t.Fatalf("device leaf %q at depth %d, want 5-frame stack %v", leaf, len(s.Stack), s.Stack)
			}
			if s.Stack[3] != spa.ComponentLabel("DRAM") {
				t.Fatalf("device leaf under %q, want DRAM level", s.Stack[3])
			}
		}
	}
	if deviceLeaves == 0 {
		t.Fatal("pointer-chase on CXL produced no device-component frames")
	}
}

// TestProfileByteIdenticalAcrossWorkers pins the determinism
// acceptance criterion: the emitted profile bytes are identical for
// -j1 and -jN runs of the same seed.
func TestProfileByteIdenticalAcrossWorkers(t *testing.T) {
	encode := func(workers int) []byte {
		tel := profileCells(t, workers)
		var buf bytes.Buffer
		if err := BuildProfile(tel.SampledSeries()).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := encode(1), encode(6)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("profile bytes differ across -j widths (%d vs %d bytes)", len(serial), len(parallel))
	}
}

// TestProfilesByExperiment: engine-run cells are stamped with the
// experiment that computed them and group into per-experiment
// profiles; cache-shared cells attribute to the first experiment.
func TestProfilesByExperiment(t *testing.T) {
	tel := NewTelemetry()
	g := NewEngine(Options{MaxWorkloads: 4, Instructions: 200_000, Warmup: 50_000,
		SampleEveryCycles: 50_000, Seed: 1})
	g.Obs = tel
	if _, ok := g.RunByID(context.Background(), "fig8f"); !ok {
		t.Fatal("fig8f not registered")
	}
	series := tel.SampledSeries()
	if len(series) == 0 {
		t.Fatal("engine run collected no sampled series")
	}
	for _, s := range series {
		if s.Experiment != "fig8f" {
			t.Fatalf("series %s@%s stamped %q, want fig8f", s.Workload, s.Config, s.Experiment)
		}
		if s.Platform == "" {
			t.Fatalf("series %s@%s has no platform", s.Workload, s.Config)
		}
	}
	profs := ProfilesByExperiment(series)
	if len(profs) != 1 || profs["fig8f"] == nil {
		t.Fatalf("profiles grouped as %v, want one fig8f entry", profs)
	}
	if len(profs["fig8f"].Samples) == 0 {
		t.Fatal("fig8f profile is empty")
	}
	var found bool
	for _, c := range profs["fig8f"].Comments {
		if strings.Contains(c, "sampled cells") {
			found = true
		}
	}
	if !found {
		t.Fatal("profile missing provenance comment")
	}
}
