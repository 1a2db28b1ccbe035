package spa

import (
	"fmt"
	"io"
	"strconv"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/obs/sampler"
)

// Phase-resolved Spa reporting: the per-period breakdowns from
// AnalyzePeriods are segmented into phases — maximal runs of adjacent
// instruction periods sharing the same dominant stall component — and
// each phase's device-resident time is attributed to the expander's
// internal components by differencing the cumulative CPMU accumulators
// carried in a sampled stream. The output is the narrative the paper
// builds by hand in §5.6: "instructions 0–50M: 72% of added stalls are
// loads bound on DRAM/CXL, attributed to CXL scheduler wait".

// DeviceShare attributes a phase's device-resident time across the
// expander's components (fractions of the phase's total device time),
// plus the governor events that fired inside the phase.
type DeviceShare struct {
	LinkReq   float64 `json:"link_req"`
	SchedWait float64 `json:"sched_wait"`
	Media     float64 `json:"media"`
	LinkRsp   float64 `json:"link_rsp"`
	Hiccups   uint64  `json:"hiccups"`
	Thermals  uint64  `json:"thermals"`
	// Valid reports whether a sampled device stream covered the phase.
	Valid bool `json:"valid"`
}

// DeviceComponentNames returns the expander-internal component labels
// in CPMU order (link request, scheduler wait, media, link response) —
// the frame vocabulary shared by the narrative's attribution and the
// simulated-time profile's device-level stack frames.
func DeviceComponentNames() []string {
	return []string{"CXL link request", "CXL scheduler wait", "media access", "CXL link response"}
}

// Dominant returns the largest device component's label and share.
func (d DeviceShare) Dominant() (string, float64) {
	names := DeviceComponentNames()
	vals := []float64{d.LinkReq, d.SchedWait, d.Media, d.LinkRsp}
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return names[best], vals[best]
}

// Phase is a maximal run of adjacent instruction periods with the same
// dominant stall component. Breakdown is the equal-weight mean of the
// merged periods' breakdowns (periods cover equal instruction spans).
type Phase struct {
	StartInstr uint64
	EndInstr   uint64
	Periods    int
	Breakdown
	// Dominant is the phase's dominant component (a ComponentNames
	// entry); DominantShare its fraction of the phase's added stalls.
	Dominant      string
	DominantShare float64
	Device        DeviceShare
}

// Report is the phase-resolved analysis of one baseline/target pair.
type Report struct {
	PeriodInstr uint64
	Phases      []Phase
}

// componentValue extracts one named component from a breakdown.
func componentValue(b Breakdown, name string) float64 {
	for i, n := range ComponentNames() {
		if n == name {
			return b.Components()[i]
		}
	}
	return 0
}

// dominantComponent returns the largest component's name and its share
// of the positive (added-stall) total.
func dominantComponent(b Breakdown) (string, float64) {
	names := ComponentNames()
	comps := b.Components()
	best, total := 0, 0.0
	for i, v := range comps {
		if v > comps[best] {
			best = i
		}
		if v > 0 {
			total += v
		}
	}
	share := 0.0
	if total > 0 && comps[best] > 0 {
		share = comps[best] / total
	}
	return names[best], share
}

// NewReport segments per-period breakdowns (from AnalyzePeriods) into
// phases. periodInstr must match the AnalyzePeriods call.
func NewReport(periods []PeriodBreakdown, periodInstr uint64) Report {
	r := Report{PeriodInstr: periodInstr}
	if periodInstr == 0 {
		return r
	}
	i := 0
	for i < len(periods) {
		name, _ := dominantComponent(periods[i].Breakdown)
		j := i + 1
		for j < len(periods) {
			n, _ := dominantComponent(periods[j].Breakdown)
			if n != name || periods[j].StartInstr != periods[j-1].StartInstr+periodInstr {
				break
			}
			j++
		}
		var sum Breakdown
		for _, p := range periods[i:j] {
			sum.Actual += p.Actual
			sum.EstTotal += p.EstTotal
			sum.EstBackend += p.EstBackend
			sum.EstMemory += p.EstMemory
			sum.Store += p.Store
			sum.L1 += p.L1
			sum.L2 += p.L2
			sum.L3 += p.L3
			sum.DRAM += p.DRAM
			sum.Core += p.Core
			sum.Other += p.Other
		}
		k := float64(j - i)
		mean := Breakdown{
			Actual: sum.Actual / k, EstTotal: sum.EstTotal / k,
			EstBackend: sum.EstBackend / k, EstMemory: sum.EstMemory / k,
			Store: sum.Store / k, L1: sum.L1 / k, L2: sum.L2 / k,
			L3: sum.L3 / k, DRAM: sum.DRAM / k, Core: sum.Core / k,
			Other: sum.Other / k,
		}
		ph := Phase{
			StartInstr: periods[i].StartInstr,
			EndInstr:   periods[j-1].StartInstr + periodInstr,
			Periods:    j - i,
			Breakdown:  mean,
			Dominant:   name,
		}
		// Share of the dominant component within the phase mean: the
		// dominant was chosen per period, so compute its share rather
		// than re-picking (averaging could shift the maximum).
		total := 0.0
		for _, v := range mean.Components() {
			if v > 0 {
				total += v
			}
		}
		if v := componentValue(mean, name); total > 0 && v > 0 {
			ph.DominantShare = v / total
		}
		r.Phases = append(r.Phases, ph)
		i = j
	}
	return r
}

// devAccum holds cumulative CPMU accumulators: link request, scheduler
// wait, media and link response ns, then hiccup and thermal stalls.
type devAccum [6]float64

func accumOf(s sampler.Sample) devAccum {
	d := s.Device
	return devAccum{d.LinkReqNs, d.SchedWaitNs, d.MediaNs, d.LinkRspNs,
		float64(d.HiccupStalls), float64(d.ThermalStalls)}
}

// deviceAt linearly interpolates the target stream's cumulative device
// accumulators at an instruction index, mirroring interpolate() for
// counter snapshots. Samples without device state contribute nothing.
func deviceAt(samples []sampler.Sample, instr float64) (out devAccum, ok bool) {
	if len(samples) == 0 || !samples[0].HasDevice {
		return out, false
	}
	lo := bracket(samples, instr)
	switch {
	case lo == 0:
		fi := samples[0].Counters[counters.Instructions]
		if fi <= 0 {
			return out, true
		}
		a, frac := accumOf(samples[0]), instr/fi
		for k := range out {
			out[k] = a[k] * frac
		}
		return out, true
	case lo == len(samples):
		return accumOf(samples[lo-1]), true
	}
	a, b := samples[lo-1], samples[lo]
	ai := a.Counters[counters.Instructions]
	bi := b.Counters[counters.Instructions]
	if bi <= ai {
		return accumOf(a), true
	}
	frac := (instr - ai) / (bi - ai)
	av, bv := accumOf(a), accumOf(b)
	for k := range out {
		out[k] = av[k] + (bv[k]-av[k])*frac
	}
	return out, true
}

// AttributeDevice fills each phase's DeviceShare from the target (CXL)
// run's sampled stream: cumulative CPMU accumulators are interpolated
// at the phase's instruction boundaries and differenced, yielding the
// share of device-resident time each expander component contributed
// during exactly that phase.
func (r *Report) AttributeDevice(target []sampler.Sample) {
	for i := range r.Phases {
		ph := &r.Phases[i]
		a, okA := deviceAt(target, float64(ph.StartInstr))
		b, okB := deviceAt(target, float64(ph.EndInstr))
		if !okA || !okB {
			continue
		}
		var d [4]float64
		total := 0.0
		for k := range d {
			d[k] = b[k] - a[k]
			total += d[k]
		}
		if total <= 0 {
			continue
		}
		ph.Device = DeviceShare{
			LinkReq: d[0] / total, SchedWait: d[1] / total,
			Media: d[2] / total, LinkRsp: d[3] / total,
			Hiccups:  uint64(b[4] - a[4] + 0.5),
			Thermals: uint64(b[5] - a[5] + 0.5),
			Valid:    true,
		}
	}
}

// ComponentLabel renders a ComponentNames entry as the human-readable
// phrasing used by both the phase narrative and the simulated-time
// profile's memory-level stack frames.
func ComponentLabel(name string) string {
	switch name {
	case "DRAM":
		return "loads bound on DRAM/CXL"
	case "L3":
		return "loads bound on L3"
	case "L2":
		return "loads bound on L2"
	case "L1":
		return "loads bound on L1"
	case "Store":
		return "store-buffer stalls"
	case "Core":
		return "core-bound stalls"
	}
	return "unattributed stalls"
}

// fmtInstr renders an instruction index compactly (50M, 1.2B, ...).
func fmtInstr(n uint64) string {
	f := float64(n)
	trim := func(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }
	switch {
	case n == 0:
		return "0"
	case f >= 1e9:
		return trim(f/1e9) + "B"
	case f >= 1e6:
		return trim(f/1e6) + "M"
	case f >= 1e3:
		return trim(f/1e3) + "K"
	}
	return strconv.FormatUint(n, 10)
}

// Narrative writes the phase-resolved table, one line per phase:
//
//	instructions 0–50M: slowdown 43%; 72% of added stalls are loads
//	bound on DRAM/CXL, attributed to CXL scheduler wait (54% of
//	device time)
func (r Report) Narrative(w io.Writer) {
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "instructions %s–%s: slowdown %.0f%%; %.0f%% of added stalls are %s",
			fmtInstr(ph.StartInstr), fmtInstr(ph.EndInstr),
			ph.Actual*100, ph.DominantShare*100, ComponentLabel(ph.Dominant))
		if ph.Device.Valid {
			name, share := ph.Device.Dominant()
			fmt.Fprintf(w, ", attributed to %s (%.0f%% of device time)", name, share*100)
		}
		fmt.Fprintln(w)
	}
}
