// Package cxl models a CXL type-3 memory expander: the Flex Bus link,
// the third-party memory controller's transaction layer and request
// scheduler, a thermal/power governor, and a DDR media backend.
//
// The controller is where CXL's behavioural differences from local DRAM
// live (paper §2, §3.2): header-carrying flits on a full-duplex link,
// CRC replays, credit back-pressure, periodic scheduler hiccups, and
// utilization-triggered throttling. Each vendor profile (A-D) enables a
// different subset with different magnitudes, reproducing the paper's
// "not all CXL devices are created equal" finding.
package cxl

import (
	"github.com/moatlab/melody/internal/dram"
	"github.com/moatlab/melody/internal/link"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// Flit overheads in bytes. CXL.mem packs a 64B payload plus protocol
// header into each data flit; command/completion flits are header-only.
const (
	headerBytes  = 16
	readReqBytes = headerBytes                // read command
	dataBytes    = mem.LineSize + headerBytes // data-carrying flit
	ackBytes     = 8                          // write completion (NDR)
)

// MCConfig describes the expander's memory controller.
type MCConfig struct {
	// PipelineNs is the fixed round-trip controller processing time:
	// flit decode, request-queue insertion, scheduling, response pack.
	PipelineNs float64

	// Scheduler hiccups: every HiccupPeriodNs the controller stalls new
	// requests for HiccupNs (internal housekeeping, scheduler batching,
	// media recalibration). This is what produces tail latencies even
	// at low load on immature controllers (CXL-B/C in the paper).
	HiccupPeriodNs float64
	HiccupNs       float64
	// MajorHiccupPeriodNs/MajorHiccupNs model the rare µs-level events
	// visible at p99.99+ in Figure 3b.
	MajorHiccupPeriodNs float64
	MajorHiccupNs       float64

	// Thermal/power governor: when the utilization EWMA exceeds
	// ThermalThreshold (fraction of PeakGBs), the governor inserts
	// ThermalStallNs every ThermalPeriodNs. This grows the p99.9-p50
	// gap beyond a device-specific utilization point (Figure 3c).
	ThermalThreshold float64
	ThermalPeriodNs  float64
	ThermalStallNs   float64

	// PeakGBs is the device's nominal peak bandwidth used to normalize
	// utilization for the governor.
	PeakGBs float64

	// UtilWindowNs is the bandwidth-measurement window.
	UtilWindowNs float64
}

// Profile is a complete CXL device description.
type Profile struct {
	Name string
	Link link.Config
	MC   MCConfig
	DRAM dram.Config
}

// Device implements mem.Device for one CXL memory expander.
type Device struct {
	prof Profile
	lnk  *link.Link
	mod  *dram.Module
	rng  *sim.Rand

	schedBlockedUntil float64
	hiccupAnchor      float64
	majorAnchor       float64

	windowStart float64
	windowBytes float64
	util        float64
	throttleAt  float64

	pmu      CPMU
	lastDone float64
	obs      mem.Observer

	// State-probe tracking (EnableStateProbe): in-flight completion
	// times plus read/write byte accumulators since the last probe.
	// All of it is pure observation — Access timing never reads it.
	probe           bool
	inflight        sim.TimeHeap
	probeWinStartNs float64
	probeReadBytes  float64
	probeWriteBytes float64
}

var (
	_ mem.Device     = (*Device)(nil)
	_ mem.Observable = (*Device)(nil)
)

// New constructs a Device from a profile. The seed drives CRC errors and
// hiccup phase randomization.
func New(prof Profile, seed uint64) *Device {
	d := &Device{
		prof: prof,
		lnk:  link.New(prof.Link, seed),
		mod:  dram.New(prof.DRAM),
		rng:  sim.NewRand(seed ^ 0xc3a5c85c97cb3127),
	}
	d.Reset()
	return d
}

// Name implements mem.Device.
func (d *Device) Name() string { return d.prof.Name }

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.prof }

// Reset implements mem.Device.
func (d *Device) Reset() {
	d.lnk.Reset()
	d.mod.Reset()
	d.schedBlockedUntil = 0
	// Randomize hiccup phases so co-located devices don't align.
	d.hiccupAnchor = d.rng.Float64() * d.prof.MC.HiccupPeriodNs
	d.majorAnchor = d.rng.Float64() * d.prof.MC.MajorHiccupPeriodNs
	d.windowStart, d.windowBytes, d.util = 0, 0, 0
	d.throttleAt = 0
	d.pmu = CPMU{}
	d.lastDone = 0
	d.inflight = sim.TimeHeap{}
	d.probeWinStartNs, d.probeReadBytes, d.probeWriteBytes = 0, 0, 0
}

// PMU exposes the device's CXL 3.0-style performance monitoring unit.
func (d *Device) PMU() *CPMU { return &d.pmu }

// SetObserver implements mem.Observable: o receives every completed
// access with full component attribution (the same breakdown the CPMU
// accumulates). Observation happens after the access's timing is
// committed and never changes simulated behaviour; the nil (detached)
// path costs a nil check and zero allocations. The observer survives
// Reset.
func (d *Device) SetObserver(o mem.Observer) { d.obs = o }

// updateUtil folds one request's bytes into the utilization EWMA.
func (d *Device) updateUtil(now, bytes float64) {
	w := d.prof.MC.UtilWindowNs
	if w <= 0 {
		w = 2000
	}
	d.windowBytes += bytes
	if now-d.windowStart >= w {
		inst := d.windowBytes / (now - d.windowStart) // bytes/ns == GB/s
		peak := d.prof.MC.PeakGBs
		if peak <= 0 {
			peak = d.mod.PeakBandwidth()
		}
		u := inst / peak
		d.util = 0.5*d.util + 0.5*u
		d.windowStart = now
		d.windowBytes = 0
	}
}

// hiccupDelay returns the schedule-blocked-until implied by the periodic
// hiccup processes for a request arriving at t.
func hiccupWindow(t, anchor, period, dur float64) (blockedUntil float64) {
	if period <= 0 || dur <= 0 {
		return 0
	}
	shifted := t - anchor
	if shifted < 0 {
		return 0
	}
	k := float64(uint64(shifted / period))
	winStart := k*period + anchor
	if t < winStart+dur {
		return winStart + dur
	}
	return 0
}

// Access implements mem.Device.
func (d *Device) Access(now float64, addr uint64, kind mem.Kind) float64 {
	mc := &d.prof.MC
	isWrite := kind == mem.Write

	// 1. Request flit over the link.
	reqBytes := float64(readReqBytes)
	if isWrite {
		reqBytes = dataBytes
	}
	tArrive := d.lnk.Send(now, link.Req, reqBytes)

	// 2. Transaction layer + scheduler.
	t := tArrive + mc.PipelineNs/2
	hiccuped := false
	if d.schedBlockedUntil > t {
		t = d.schedBlockedUntil
	}
	if until := hiccupWindow(t, d.hiccupAnchor, mc.HiccupPeriodNs, mc.HiccupNs); until > t {
		t = until
		d.schedBlockedUntil = until
		hiccuped = true
	}
	if until := hiccupWindow(t, d.majorAnchor, mc.MajorHiccupPeriodNs, mc.MajorHiccupNs); until > t {
		t = until
		d.schedBlockedUntil = until
		hiccuped = true
	}

	// 3. Thermal/power governor.
	throttled := false
	if mc.ThermalThreshold > 0 && d.util > mc.ThermalThreshold && mc.ThermalPeriodNs > 0 {
		if t >= d.throttleAt {
			d.throttleAt = t + mc.ThermalPeriodNs
			d.schedBlockedUntil = t + mc.ThermalStallNs
			t = d.schedBlockedUntil
			throttled = true
		}
	}

	// 4. Media access.
	start, done := d.mod.Access(t, addr, isWrite)

	var completion float64
	var mediaNs, linkRspNs float64
	if isWrite {
		// Posted write: absorbed when the media transfer is scheduled;
		// the completion flit still loads the response direction.
		d.lnk.Send(start, link.Rsp, ackBytes)
		completion = start
		mediaNs, linkRspNs = start-t, 0
	} else {
		completion = d.lnk.Send(done+mc.PipelineNs/2, link.Rsp, dataBytes)
		mediaNs, linkRspNs = done-t, completion-done
	}
	d.pmu.record(tArrive-now, t-tArrive, mediaNs, linkRspNs, isWrite, hiccuped, throttled)
	if d.probe {
		for d.inflight.Len() > 0 && d.inflight.Min() <= now {
			d.inflight.PopMin()
		}
		d.inflight.Push(completion)
		if isWrite {
			d.probeWriteBytes += mem.LineSize
		} else {
			d.probeReadBytes += mem.LineSize
		}
	}
	if d.obs != nil {
		d.obs.ObserveAccess(mem.AccessObservation{
			Kind: kind, Start: now, Done: completion,
			LinkReqNs: tArrive - now, SchedWaitNs: t - tArrive,
			MediaNs: mediaNs, LinkRspNs: linkRspNs,
			Attributed: true, Hiccup: hiccuped, Thermal: throttled,
		})
	}

	d.updateUtil(now, reqBytes)
	if !isWrite {
		d.updateUtil(now, dataBytes)
	}
	d.lastDone = completion
	return completion
}

// Stats implements mem.Device. It reads the CPMU and the link and DRAM
// counters at the time of the call.
func (d *Device) Stats() mem.DeviceStats {
	return mem.DeviceStats{
		Reads:     d.pmu.Requests - d.pmu.Writes,
		Writes:    d.pmu.Writes,
		RowHits:   d.mod.RowHits(),
		RowMisses: d.mod.RowMisses(),
		Retries:   d.lnk.Retries(),
		Throttled: d.pmu.ThermalStalls,
		BusyNs:    d.mod.BusyNs(),
		LastDone:  d.lastDone,
	}
}

// PeakBandwidth returns the nominal peak bandwidth (GB/s).
func (d *Device) PeakBandwidth() float64 {
	if d.prof.MC.PeakGBs > 0 {
		return d.prof.MC.PeakGBs
	}
	return d.mod.PeakBandwidth()
}
