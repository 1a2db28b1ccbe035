// Package sampler implements the time-resolved "simulated perf" layer:
// the one deterministic sampling stream of a run, which periodically
// snapshots the CPU's full counter state and (when attached) a CXL
// expander's instantaneous CPMU state.
//
// Real perf samples a PMU on a wall-clock or event cadence; here the
// cadence is simulated ns or cycles (core.Config.Cadence), derived
// purely from the sim clock, so a sampled stream is bit-identical
// across runs, -j widths, and host machines. Sampling is strictly
// observation-only: attaching a Sampler never changes simulated
// timing, and the detached path in the machine loop is one branch.
//
// The collected series feeds the period-resolved Spa analysis in
// package spa and three sinks (sinks.go): Perfetto counter tracks on
// an obs.Trace, a CSV time-series export, and the simulated-time
// profiles.
package sampler

import (
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
)

// Sample is one periodic reading: the cumulative CPU counter snapshot
// at TimeNs plus, when a device probe is attached, the expander's
// instantaneous CPMU state at the same simulated instant.
type Sample struct {
	TimeNs    float64           `json:"time_ns"`
	Counters  counters.Snapshot `json:"counters"`
	Device    cxl.CPMUState     `json:"device"`
	HasDevice bool              `json:"has_device"`
}

// Sampler collects Samples at the cadence configured on the machine
// (core.Config.Sampler + Cadence). It implements
// core.Sampler. Not safe for concurrent use: each simulated cell owns
// its own Sampler, mirroring per-core perf buffers.
type Sampler struct {
	probe   *cxl.Device
	samples []Sample
}

var _ core.Sampler = (*Sampler)(nil)

// New builds a Sampler. probe may be nil (CPU counters only). A
// non-nil probe is armed immediately so its bandwidth windows align
// with the sampling cadence from the first period.
func New(probe *cxl.Device) *Sampler {
	s := &Sampler{probe: probe}
	if probe != nil {
		probe.EnableStateProbe()
	}
	return s
}

// Sample implements core.Sampler: record the counter snapshot and, if
// a probe is attached, read the device state at the same sim time.
func (s *Sampler) Sample(timeNs float64, c counters.Snapshot) {
	smp := Sample{TimeNs: timeNs, Counters: c}
	if s.probe != nil {
		smp.Device = s.probe.ProbeState(timeNs)
		smp.HasDevice = true
	}
	s.samples = append(s.samples, smp)
}

// Samples returns the collected series in sampling order. The slice is
// owned by the Sampler; callers must not mutate it.
func (s *Sampler) Samples() []Sample { return s.samples }
