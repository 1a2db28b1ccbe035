package cxl

import "github.com/moatlab/melody/internal/link"

// CPMUState is one instantaneous reading of the expander's internal
// state — the time-resolved view a CXL 3.0 CPMU could expose and that
// the paper argues is required to reason about tail latencies (§3.2).
// Where the CPMU accumulators answer "how much time went where over the
// whole run", CPMUState answers "what does the device look like *right
// now*": transaction-queue occupancy, link credits in flight, the
// thermal governor's state, and instantaneous read/write bandwidth.
//
// The cumulative component accumulators (LinkReqNs..LinkRspNs,
// HiccupStalls, ThermalStalls, Requests) are copied from the CPMU at
// probe time so samplers can difference consecutive probes into
// per-period component attribution without a second probe channel.
type CPMUState struct {
	TimeNs float64 `json:"time_ns"`

	// QueueDepth counts requests issued to the controller whose
	// completion lies beyond TimeNs — transaction-queue occupancy.
	QueueDepth int `json:"queue_depth"`

	// LinkCreditsInFlight counts flow-control credits consumed but not
	// yet returned across both link directions (0 when the profile
	// disables flow control).
	LinkCreditsInFlight int `json:"link_credits_in_flight"`

	// ThermalActive reports whether the thermal/power governor is armed
	// (utilization EWMA above the profile's threshold); UtilFrac is
	// that EWMA as a fraction of peak bandwidth.
	ThermalActive bool    `json:"thermal_active"`
	UtilFrac      float64 `json:"util_frac"`

	// ReadGBs/WriteGBs are the instantaneous payload bandwidths since
	// the previous probe (bytes moved / elapsed sim time).
	ReadGBs  float64 `json:"read_gbs"`
	WriteGBs float64 `json:"write_gbs"`

	// Cumulative CPMU accumulators at probe time.
	LinkReqNs     float64 `json:"link_req_ns"`
	SchedWaitNs   float64 `json:"sched_wait_ns"`
	MediaNs       float64 `json:"media_ns"`
	LinkRspNs     float64 `json:"link_rsp_ns"`
	HiccupStalls  uint64  `json:"hiccup_stalls"`
	ThermalStalls uint64  `json:"thermal_stalls"`
	Requests      uint64  `json:"requests"`
}

// ComponentDelta returns the per-component time the expander
// accumulated between an earlier probe prev and s: nanoseconds spent
// in link request transmission, scheduler wait, media service, and
// link response return. Differencing the cumulative accumulators is
// how samplers turn two probes into a per-interval attribution — the
// device-component split behind the phase narrative and the
// simulated-time profiles' leaf frames.
func (s CPMUState) ComponentDelta(prev CPMUState) (linkReq, schedWait, media, linkRsp float64) {
	return s.LinkReqNs - prev.LinkReqNs, s.SchedWaitNs - prev.SchedWaitNs,
		s.MediaNs - prev.MediaNs, s.LinkRspNs - prev.LinkRspNs
}

// EnableStateProbe arms the state that only ProbeState reads: the heap
// of in-flight completions behind QueueDepth and the read/write byte
// windows behind ReadGBs/WriteGBs. It is off by default because that
// tracking costs heap work per access; the CPMU counters ProbeState
// copies are always on. Probing is observation-only: arming the probe
// and reading state never change simulated access timing. Like the
// observer, the probe survives Reset.
func (d *Device) EnableStateProbe() { d.probe = true }

// ProbeState reads the device state at simulated time nowNs. Probe
// times must be non-decreasing across calls. The instantaneous
// bandwidth window is [previous probe, nowNs]; the first probe
// measures from time 0.
func (d *Device) ProbeState(nowNs float64) CPMUState {
	for d.inflight.Len() > 0 && d.inflight.Min() <= nowNs {
		d.inflight.PopMin()
	}
	s := CPMUState{
		TimeNs:              nowNs,
		QueueDepth:          d.inflight.Len(),
		LinkCreditsInFlight: d.lnk.CreditsInFlight(link.Req, nowNs) + d.lnk.CreditsInFlight(link.Rsp, nowNs),
		ThermalActive:       d.prof.MC.ThermalThreshold > 0 && d.util > d.prof.MC.ThermalThreshold,
		UtilFrac:            d.util,
		LinkReqNs:           d.pmu.LinkReqNs,
		SchedWaitNs:         d.pmu.SchedWaitNs,
		MediaNs:             d.pmu.MediaNs,
		LinkRspNs:           d.pmu.LinkRspNs,
		HiccupStalls:        d.pmu.HiccupStalls,
		ThermalStalls:       d.pmu.ThermalStalls,
		Requests:            d.pmu.Requests,
	}
	if dt := nowNs - d.probeWinStartNs; dt > 0 {
		s.ReadGBs = d.probeReadBytes / dt // bytes/ns == GB/s
		s.WriteGBs = d.probeWriteBytes / dt
	}
	d.probeWinStartNs = nowNs
	d.probeReadBytes, d.probeWriteBytes = 0, 0
	return s
}
