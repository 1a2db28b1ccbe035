package diff

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/sampler"
)

// baseManifest builds a manifest with one latency histogram, one stall
// counter, one sampled stream, and one cell — the full gating surface.
func baseManifest() melody.Manifest {
	var snap counters.Snapshot
	snap[counters.Cycles] = 1_000_000
	snap[counters.StallsL3Miss] = 40_000
	snap[counters.Instructions] = 400_000
	return melody.Manifest{
		Tool: "melody", Seed: 7, Workers: 4, Workloads: 8,
		Cells: []melody.CellTiming{
			{Workload: "w1", Config: "CXL-B", Platform: "EMR2S", Seed: 11, WallMs: 5},
		},
		Timeseries: []melody.SampledSeries{{
			Workload: "w1", Config: "CXL-B", Platform: "EMR2S", Experiment: "fig5",
			Samples: []sampler.Sample{
				{TimeNs: 100, Counters: counters.Snapshot{}, HasDevice: true,
					Device: cxl.CPMUState{ReadGBs: 10, WriteGBs: 4}},
				{TimeNs: 200, Counters: snap, HasDevice: true,
					Device: cxl.CPMUState{ReadGBs: 12, WriteGBs: 6}},
			},
		}},
		Registry: obs.Export{
			Counters: map[string]uint64{
				"device/EMR2S/CXL-B/hiccup_stalls": 100,
				"runner/cache_hit":                 5,
			},
			Gauges: map[string]float64{},
			Histograms: map[string]obs.HistogramExport{
				"device/EMR2S/CXL-B/latency_ns": {Summary: obs.Summary{Count: 1000, Mean: 400, P99: 900}},
				"runner/cell_wall_ms":           {Summary: obs.Summary{Count: 1, Mean: 5, P99: 5}},
			},
		},
	}
}

func TestCompareIdenticalIsClean(t *testing.T) {
	rep := Compare(baseManifest(), baseManifest(), Options{})
	if rep.HasRegressions() || len(rep.Improvements) != 0 {
		t.Fatalf("identical manifests produced deltas: %+v", rep)
	}
	if rep.Within == 0 {
		t.Fatal("no gated metrics were compared")
	}
	if len(rep.Notes) != 0 || len(rep.OnlyOld) != 0 || len(rep.OnlyNew) != 0 {
		t.Fatalf("identical manifests produced notes: %+v", rep)
	}
}

func TestCompareLatencyRegression(t *testing.T) {
	newM := baseManifest()
	h := newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"]
	h.Mean, h.P99 = 480, 1100 // +20%, +22%
	newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"] = h

	rep := Compare(baseManifest(), newM, Options{Threshold: 0.05})
	if !rep.HasRegressions() || len(rep.Regressions) != 2 {
		t.Fatalf("latency regression missed: %+v", rep.Regressions)
	}
	// Worst offender first.
	if rep.Regressions[0].Metric != "device/EMR2S/CXL-B/latency_ns p99" {
		t.Fatalf("order = %v", rep.Regressions)
	}
	if d := rep.Regressions[1]; math.Abs(d.RelDelta-0.20) > 1e-9 || !d.Regressed {
		t.Fatalf("mean delta = %+v", d)
	}
}

func TestCompareLatencyImprovementAndThreshold(t *testing.T) {
	newM := baseManifest()
	h := newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"]
	h.Mean = 320 // -20%: improvement
	h.P99 = 909  // +1%: within default 5%
	newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"] = h

	rep := Compare(baseManifest(), newM, Options{})
	if rep.HasRegressions() {
		t.Fatalf("improvement flagged as regression: %+v", rep.Regressions)
	}
	if len(rep.Improvements) != 1 || !rep.Improvements[0].Improved {
		t.Fatalf("improvements = %+v", rep.Improvements)
	}
}

func TestCompareBandwidthLowerIsWorse(t *testing.T) {
	newM := baseManifest()
	for i := range newM.Timeseries[0].Samples {
		newM.Timeseries[0].Samples[i].Device.ReadGBs *= 0.5
	}
	rep := Compare(baseManifest(), newM, Options{})
	if len(rep.Regressions) != 1 ||
		rep.Regressions[0].Metric != "w1 @ CXL-B @ EMR2S @ fig5 read_gbs" {
		t.Fatalf("bandwidth drop missed: %+v", rep.Regressions)
	}
	// Bandwidth *gain* is an improvement, not a regression.
	gain := baseManifest()
	for i := range gain.Timeseries[0].Samples {
		gain.Timeseries[0].Samples[i].Device.WriteGBs *= 2
	}
	rep = Compare(baseManifest(), gain, Options{})
	if rep.HasRegressions() || len(rep.Improvements) != 1 {
		t.Fatalf("bandwidth gain misclassified: %+v", rep)
	}
}

func TestCompareSpaCounterRegression(t *testing.T) {
	newM := baseManifest()
	last := len(newM.Timeseries[0].Samples) - 1
	newM.Timeseries[0].Samples[last].Counters[counters.StallsL3Miss] *= 2
	rep := Compare(baseManifest(), newM, Options{})
	if len(rep.Regressions) != 1 ||
		!strings.HasSuffix(rep.Regressions[0].Metric, counters.StallsL3Miss.String()) {
		t.Fatalf("stall counter regression missed: %+v", rep.Regressions)
	}
}

func TestCompareStallCounterAndHostTimeHandling(t *testing.T) {
	newM := baseManifest()
	newM.Registry.Counters["device/EMR2S/CXL-B/hiccup_stalls"] = 200
	// Host wall-time histogram changes must never gate.
	newM.Registry.Histograms["runner/cell_wall_ms"] = obs.HistogramExport{Summary: obs.Summary{Count: 1, Mean: 5000, P99: 5000}}
	// Cache-outcome counters inform, never gate.
	newM.Registry.Counters["runner/cache_hit"] = 0

	rep := Compare(baseManifest(), newM, Options{})
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "device/EMR2S/CXL-B/hiccup_stalls" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
}

func TestCompareNotesAndAlignment(t *testing.T) {
	oldM, newM := baseManifest(), baseManifest()
	newM.Seed = 8
	newM.Interrupted = true
	newM.Cells[0].Seed = 99
	newM.Registry.Histograms["device/EMR2S/Local/latency_ns"] = obs.HistogramExport{Summary: obs.Summary{Count: 1, Mean: 100}}
	delete(newM.Registry.Counters, "runner/cache_hit")
	h := newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"]
	h.Count = 999
	newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"] = h

	rep := Compare(oldM, newM, Options{})
	joined := strings.Join(rep.Notes, "\n")
	for _, want := range []string{"seed differs", "interrupted run", "derived seed changed", "sample count drifted"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("notes missing %q:\n%s", want, joined)
		}
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "histogram device/EMR2S/Local/latency_ns" {
		t.Fatalf("only_new = %v", rep.OnlyNew)
	}
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0] != "counter runner/cache_hit" {
		t.Fatalf("only_old = %v", rep.OnlyOld)
	}
}

func TestCompareZeroOldValue(t *testing.T) {
	oldM, newM := baseManifest(), baseManifest()
	oldM.Registry.Counters["device/EMR2S/CXL-B/hiccup_stalls"] = 0
	rep := Compare(oldM, newM, Options{})
	if len(rep.Regressions) != 1 || !math.IsInf(rep.Regressions[0].RelDelta, 1) {
		t.Fatalf("zero->nonzero not flagged: %+v", rep.Regressions)
	}
	// Zero on both sides is clean.
	newM.Registry.Counters["device/EMR2S/CXL-B/hiccup_stalls"] = 0
	if rep := Compare(oldM, newM, Options{}); rep.HasRegressions() {
		t.Fatalf("zero==zero flagged: %+v", rep.Regressions)
	}
}

func TestReportTableAndJSON(t *testing.T) {
	newM := baseManifest()
	h := newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"]
	h.Mean = 480
	newM.Registry.Histograms["device/EMR2S/CXL-B/latency_ns"] = h
	rep := Compare(baseManifest(), newM, Options{})
	rep.OldPath, rep.NewPath = "a.json", "b.json"

	table := rep.Table()
	for _, want := range []string{"a.json vs b.json", "REGR", "latency_ns mean", "+20.0%"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Regressions) != 1 || round.Regressions[0].Metric != rep.Regressions[0].Metric {
		t.Fatalf("JSON round trip lost regressions: %+v", round)
	}

	clean := Compare(baseManifest(), baseManifest(), Options{})
	if got := clean.Table(); !strings.Contains(got, "no changes beyond threshold") {
		t.Fatalf("clean table:\n%s", got)
	}
}

func TestCompareDefaultThreshold(t *testing.T) {
	rep := Compare(baseManifest(), baseManifest(), Options{})
	if rep.Threshold != DefaultThreshold {
		t.Fatalf("threshold = %v", rep.Threshold)
	}
	rep = Compare(baseManifest(), baseManifest(), Options{Threshold: 0.2})
	if rep.Threshold != 0.2 {
		t.Fatalf("threshold = %v", rep.Threshold)
	}
}
