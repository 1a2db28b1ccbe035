package spa

import (
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

func runAtLatency(t *testing.T, lat float64) (cycles float64, snap sampler.Sample) {
	t.Helper()
	p := workload.Profile{WorkingSetMB: 256, MemRatio: 0.35, DepFrac: 0.6}
	w := workload.NewSynthetic("pred", p, 1)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: lat}, MaxInstructions: 150_000})
	w.Run(m)
	return m.Counters()[0], sampler.Sample{Counters: m.Counters()}
}

func TestPredictInterpolates(t *testing.T) {
	// Calibrate on (100 -> 300) and predict 200 and 400; compare with
	// actual runs at those latencies.
	_, base := runAtLatency(t, 100)
	_, cal := runAtLatency(t, 300)
	pred := NewPredictor(base.Counters, cal.Counters, 100, 300)

	for _, l := range []float64{200, 400} {
		_, act := runAtLatency(t, l)
		actual := Analyze(base.Counters, act.Counters).Actual
		got := pred.Predict(l)
		if err := PredictionError(got, actual); err > 0.10 {
			t.Fatalf("latency %v: predicted %.2f, actual %.2f (err %.2f)", l, got, actual, err)
		}
	}
}

func TestPredictAtCalibrationPoint(t *testing.T) {
	_, base := runAtLatency(t, 100)
	_, cal := runAtLatency(t, 300)
	pred := NewPredictor(base.Counters, cal.Counters, 100, 300)
	want := Analyze(base.Counters, cal.Counters).Actual
	if err := PredictionError(pred.Predict(300), want); err > 0.03 {
		t.Fatalf("prediction at calibration point off by %.2f", err)
	}
}

func TestPredictAtBaseIsZero(t *testing.T) {
	_, base := runAtLatency(t, 100)
	_, cal := runAtLatency(t, 300)
	pred := NewPredictor(base.Counters, cal.Counters, 100, 300)
	if got := pred.Predict(100); got > 0.05 || got < -0.05 {
		t.Fatalf("prediction at base latency = %v, want ~0", got)
	}
}

func TestPredictDegenerate(t *testing.T) {
	_, base := runAtLatency(t, 100)
	pred := NewPredictor(base.Counters, base.Counters, 100, 100)
	if got := pred.Predict(500); got != 0 {
		t.Fatalf("degenerate predictor returned %v", got)
	}
}
