package obs

import "github.com/moatlab/melody/internal/mem"

// DeviceObserver implements mem.Observer with the CPMU-style breakdown:
// an end-to-end latency histogram for every device, plus per-component
// histograms (link request, scheduler wait, media, link response) and
// governor stall counts when the device attributes its latency. It is
// designed for one simulation goroutine feeding it (the engine creates
// one per experiment cell) and merged into a shared Registry afterwards.
type DeviceObserver struct {
	// Latency receives every access's end-to-end latency (ns).
	Latency *Histogram
	// Component histograms, populated only by attributed observations.
	LinkReq, SchedWait, Media, LinkRsp *Histogram

	reads, writes     uint64
	attributed        uint64
	hiccups, thermals uint64
}

var _ mem.Observer = (*DeviceObserver)(nil)

// NewDeviceObserver returns an observer with fresh histograms.
func NewDeviceObserver() *DeviceObserver {
	return &DeviceObserver{
		Latency:   NewHistogram(),
		LinkReq:   NewHistogram(),
		SchedWait: NewHistogram(),
		Media:     NewHistogram(),
		LinkRsp:   NewHistogram(),
	}
}

// ObserveAccess implements mem.Observer. The observer owns its
// histograms and has one goroutine feeding it, so it records without
// taking their locks; MergeInto and readers run after the cell.
func (o *DeviceObserver) ObserveAccess(a mem.AccessObservation) {
	o.Latency.record(a.Latency())
	if a.Kind == mem.Write {
		o.writes++
	} else {
		o.reads++
	}
	if !a.Attributed {
		return
	}
	o.attributed++
	o.LinkReq.record(a.LinkReqNs)
	o.SchedWait.record(a.SchedWaitNs)
	o.Media.record(a.MediaNs)
	o.LinkRsp.record(a.LinkRspNs)
	if a.Hiccup {
		o.hiccups++
	}
	if a.Thermal {
		o.thermals++
	}
}

// MergeInto folds the observer's state into reg under prefix, e.g.
// prefix "device/EMR2S/CXL-B" yields "device/EMR2S/CXL-B/latency_ns",
// ".../sched_wait_ns", ".../reads", ... Component instruments are only
// created when attributed observations arrived, so non-CXL configs dump
// a latency histogram without four empty component entries.
func (o *DeviceObserver) MergeInto(reg *Registry, prefix string) {
	if o == nil || reg == nil {
		return
	}
	reg.Histogram(prefix + "/latency_ns").Merge(o.Latency)
	reg.Counter(prefix + "/reads").Add(o.reads)
	reg.Counter(prefix + "/writes").Add(o.writes)
	if o.attributed == 0 {
		return
	}
	reg.Histogram(prefix + "/link_req_ns").Merge(o.LinkReq)
	reg.Histogram(prefix + "/sched_wait_ns").Merge(o.SchedWait)
	reg.Histogram(prefix + "/media_ns").Merge(o.Media)
	reg.Histogram(prefix + "/link_rsp_ns").Merge(o.LinkRsp)
	reg.Counter(prefix + "/hiccup_stalls").Add(o.hiccups)
	reg.Counter(prefix + "/thermal_stalls").Add(o.thermals)
}
