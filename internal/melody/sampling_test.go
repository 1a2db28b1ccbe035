package melody

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/spa"
	"github.com/moatlab/melody/internal/workload"
)

// samplingSpecs picks a small named subset — sampling tests need only
// a few representative cells, not the 8+ of testSubset.
func samplingSpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	RegisterWorkloads()
	var out []workload.Spec
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("workload %s not in catalog", n)
		}
		out = append(out, s)
	}
	return out
}

// TestSamplingDoesNotPerturbResults pins the acceptance criterion:
// measurement Deltas are byte-identical with cycle sampling on or off,
// across configs with and without a CPMU probe.
func TestSamplingDoesNotPerturbResults(t *testing.T) {
	RegisterWorkloads()
	p := platform.SKX2S()
	specs := samplingSpecs(t, "605.mcf_s", "micro-chase-256m", "micro-seqread-256m", "625.x264_s")
	configs := []MemConfig{Local(p), CXL(p, cxl.ProfileA())}

	run := func(every uint64) []Result {
		r := fastRunner(p)
		r.Cadence = core.EveryCycles(every)
		results, err := r.RunAll(context.Background(), Cells(specs, configs...))
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	plain, sampled := run(0), run(20_000)
	for i := range plain {
		if plain[i].Delta != sampled[i].Delta {
			t.Fatalf("cell %s @ %s: Delta differs with sampling on",
				plain[i].Workload, plain[i].Config)
		}
		if len(plain[i].Samples) != 0 {
			t.Fatal("unsampled run carries a sampled stream")
		}
		if len(sampled[i].Samples) == 0 {
			t.Fatalf("cell %s @ %s: sampling on but stream empty",
				sampled[i].Workload, sampled[i].Config)
		}
	}
	// CXL cells carry device state; Local cells are CPU-only.
	for _, res := range sampled {
		wantDev := res.Config != "Local"
		for _, s := range res.Samples {
			if s.HasDevice != wantDev {
				t.Fatalf("cell %s @ %s: HasDevice = %v", res.Workload, res.Config, s.HasDevice)
			}
		}
	}
}

// TestSamplingDeterministicAcrossWorkers: the sampled stream itself is
// part of the deterministic contract — identical across -j widths.
func TestSamplingDeterministicAcrossWorkers(t *testing.T) {
	RegisterWorkloads()
	p := platform.SKX2S()
	specs := samplingSpecs(t, "605.mcf_s", "micro-chase-256m", "micro-randstore-64m")
	cells := Cells(specs, Local(p), CXL(p, cxl.ProfileB()))

	run := func(workers int) []Result {
		r := fastRunner(p)
		r.Workers = workers
		r.Cadence = core.EveryCycles(50_000)
		results, err := r.RunAll(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		a, b := serial[i].Samples, parallel[i].Samples
		if len(a) != len(b) {
			t.Fatalf("cell %d: %d vs %d samples across -j widths", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("cell %d sample %d differs across -j widths", i, k)
			}
		}
	}
}

func TestTelemetryCollectsSampledSeries(t *testing.T) {
	RegisterWorkloads()
	p := platform.SKX2S()
	specs := samplingSpecs(t, "605.mcf_s", "micro-chase-256m", "micro-randstore-64m")

	tel := NewTelemetry()
	tel.Trace = obs.NewTrace()
	r := fastRunner(p)
	r.Workers = 4
	r.Obs = tel
	r.Cadence = core.EveryCycles(50_000)
	if _, err := r.RunAll(context.Background(), Cells(specs, Local(p), CXL(p, cxl.ProfileA()))); err != nil {
		t.Fatal(err)
	}

	series := tel.SampledSeries()
	if len(series) != len(specs)*2 {
		t.Fatalf("got %d sampled series, want %d", len(series), len(specs)*2)
	}
	for i := 1; i < len(series); i++ {
		a, b := series[i-1], series[i]
		if a.Workload > b.Workload || (a.Workload == b.Workload && a.Config >= b.Config) {
			t.Fatalf("series not sorted: %s@%s before %s@%s", a.Workload, a.Config, b.Workload, b.Config)
		}
	}
	snap := tel.Registry.Export()
	if snap.Counters["runner/cells_sampled"] != uint64(len(series)) {
		t.Fatalf("cells_sampled = %d, series = %d", snap.Counters["runner/cells_sampled"], len(series))
	}

	// The trace carries counter tracks for every Spa counter and the
	// CPMU device-state tracks, all as valid "C" events.
	raw, err := json.Marshal(tel.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, e := range f.TraceEvents {
		if e.Ph == "C" {
			tracks[e.Name] = true
			if _, ok := e.Args["value"].(float64); !ok {
				t.Fatalf("counter event %q without numeric value", e.Name)
			}
		}
	}
	for _, name := range sampler.SpaTrackNames() {
		if !tracks[name] {
			t.Fatalf("trace missing Spa counter track %q (have %v)", name, tracks)
		}
	}
	for _, name := range sampler.CPMUTrackNames {
		if !tracks[name] {
			t.Fatalf("trace missing CPMU track %q", name)
		}
	}
}

// TestSampledStreamFeedsPeriodSpa closes the loop the tentpole exists
// for: sampled streams from a baseline and a CXL run of the same
// workload drive the period-resolved Spa report.
func TestSampledStreamFeedsPeriodSpa(t *testing.T) {
	RegisterWorkloads()
	p := platform.SKX2S()
	spec, ok := workload.ByName("micro-chase-256m")
	if !ok {
		t.Skip("micro-chase-256m not in catalog")
	}
	r := fastRunner(p)
	r.Cadence = core.EveryCycles(20_000)
	base := must(r.RunCtx(context.Background(), RunRequest{Spec: spec, Config: Local(p)}))
	tgt := must(r.RunCtx(context.Background(), RunRequest{Spec: spec, Config: CXL(p, cxl.ProfileB())}))

	periods := spa.AnalyzePeriods(base.Samples, tgt.Samples, 100_000)
	if len(periods) == 0 {
		t.Fatal("no periods from sampled streams")
	}
	rep := spa.NewReport(periods, 100_000)
	if len(rep.Phases) == 0 {
		t.Fatal("report has no phases")
	}
	rep.AttributeDevice(tgt.Samples)
	var attributed bool
	for _, ph := range rep.Phases {
		if ph.Device.Valid {
			attributed = true
		}
	}
	if !attributed {
		t.Fatal("no phase received device attribution from the CXL stream")
	}
}

// TestSampledSeriesKeepsTiedCellsInRunOrder records more series than
// sort.Slice's insertion-sort cutoff (12), five of them tied on
// (workload, config, platform, experiment) like fig8d's intensity
// variants, and checks the tied ones keep the order they ran in.
func TestSampledSeriesKeepsTiedCellsInRunOrder(t *testing.T) {
	tel := NewTelemetry()
	tel.beginExperiment("fig8d")
	var tied []float64
	for i := 0; i < 16; i++ {
		ct := CellTiming{Workload: "520.omnetpp_r", Config: "CXL-A", Platform: "EMR"}
		if i%3 == 2 {
			ct.Workload = fmt.Sprintf("w%02d", 15-i)
		} else if i >= 10 {
			ct.Config = "CXL-A+NUMA"
		} else {
			tied = append(tied, float64(i))
		}
		tel.cellSampled(ct, []sampler.Sample{{TimeNs: float64(i)}}, time.Time{})
	}
	var order []float64
	for _, s := range tel.SampledSeries() {
		if s.Workload == "520.omnetpp_r" && s.Config == "CXL-A" {
			order = append(order, s.Samples[0].TimeNs)
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(tied) {
		t.Fatalf("tied series in order %v, want run order %v", order, tied)
	}
}
