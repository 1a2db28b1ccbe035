package cxl

import "fmt"

// CPMU models the CXL Performance Monitoring Unit introduced in CXL 3.0
// — the white-box visibility the paper asks for when reasoning about
// tail latencies ("no tools exist to pinpoint tail latencies... this
// would require the CXL MC to expose detailed performance counters,
// potentially through the upcoming CPMU", §3.2). The simulated device
// can attribute every request's latency to pipeline components, so the
// CPMU exposes exactly the breakdown a future real device could:
// link transmission, transaction-layer/scheduler wait (including hiccup
// and thermal stalls), media (DRAM) service, and response return.
//
// The CPMU is the device's one counter set: always on, updated once per
// access, and cleared by Reset. Device.Stats derives mem.DeviceStats
// from it and ProbeState copies it. It keeps sums, not a distribution:
// a latency distribution comes from an observer (Device.SetObserver),
// which sees the same component times for every access.
type CPMU struct {
	// Per-component accumulated nanoseconds across requests.
	LinkReqNs   float64 // request flit transmission + propagation
	SchedWaitNs float64 // transaction layer, hiccup, and thermal waits
	MediaNs     float64 // DRAM bank/bus service
	LinkRspNs   float64 // response flit transmission + propagation
	Requests    uint64
	Writes      uint64 // the share of Requests that are writebacks

	// HiccupStalls/ThermalStalls count requests delayed by each
	// governor.
	HiccupStalls  uint64
	ThermalStalls uint64
}

// record attributes one request's component times.
func (c *CPMU) record(linkReq, schedWait, media, linkRsp float64, write, hiccup, thermal bool) {
	c.LinkReqNs += linkReq
	c.SchedWaitNs += schedWait
	c.MediaNs += media
	c.LinkRspNs += linkRsp
	c.Requests++
	if write {
		c.Writes++
	}
	if hiccup {
		c.HiccupStalls++
	}
	if thermal {
		c.ThermalStalls++
	}
}

// Breakdown returns the average per-request nanoseconds spent in each
// component: link request path, scheduler wait, media, link response.
func (c *CPMU) Breakdown() (linkReq, schedWait, media, linkRsp float64) {
	if c.Requests == 0 {
		return 0, 0, 0, 0
	}
	n := float64(c.Requests)
	return c.LinkReqNs / n, c.SchedWaitNs / n, c.MediaNs / n, c.LinkRspNs / n
}

// String renders the white-box summary.
func (c *CPMU) String() string {
	lr, sw, md, lp := c.Breakdown()
	return fmt.Sprintf("CPMU{n=%d linkReq=%.1f sched=%.1f media=%.1f linkRsp=%.1f ns; hiccup=%d thermal=%d}",
		c.Requests, lr, sw, md, lp, c.HiccupStalls, c.ThermalStalls)
}
