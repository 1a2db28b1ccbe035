package spa

import (
	"sort"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/obs/sampler"
)

// Period-based Spa (paper §5.6). The same instructions take different
// wall-clock time on DRAM and CXL, so time-sampled counters cannot be
// compared directly. Since the retired-instruction count is invariant
// across memory backends, both runs' samples are re-aligned onto a
// common instruction axis: counter values at each period boundary are
// linearly interpolated between the bracketing time samples
// (the paper's "proportional adjustment"), then differenced per period.

// PeriodBreakdown is one instruction-period's analysis.
type PeriodBreakdown struct {
	// StartInstr is the period's first instruction index.
	StartInstr uint64
	Breakdown
}

// bracket returns the index of the first sample at or past the given
// instruction count (len(samples) when every sample is before it).
// Samples must be in time order with monotone instruction counts.
func bracket(samples []sampler.Sample, instr float64) int {
	return sort.Search(len(samples), func(i int) bool {
		return samples[i].Counters[counters.Instructions] >= instr
	})
}

// interpolate returns the counter snapshot at the given instruction
// index, linearly interpolated between the bracketing samples.
func interpolate(samples []sampler.Sample, instr float64) counters.Snapshot {
	if len(samples) == 0 {
		return counters.Snapshot{}
	}
	lo := bracket(samples, instr)
	if lo == 0 {
		// Before the first sample: scale it proportionally from zero.
		first := samples[0]
		fi := first.Counters[counters.Instructions]
		if fi <= 0 {
			return counters.Snapshot{}
		}
		return first.Counters.Scale(instr / fi)
	}
	if lo == len(samples) {
		return samples[len(samples)-1].Counters
	}
	a, b := samples[lo-1], samples[lo]
	ai := a.Counters[counters.Instructions]
	bi := b.Counters[counters.Instructions]
	if bi <= ai {
		return a.Counters
	}
	frac := (instr - ai) / (bi - ai)
	return a.Counters.Add(b.Counters.Delta(a.Counters).Scale(frac))
}

// AnalyzePeriods aligns a baseline and a target sample series onto
// periodInstr-sized instruction periods and returns per-period
// breakdowns. The series come from obs/sampler at any cadence; the
// paper samples every 1 ms and analyzes 1 B-instruction periods.
func AnalyzePeriods(base, target []sampler.Sample, periodInstr uint64) []PeriodBreakdown {
	if periodInstr == 0 || len(base) == 0 || len(target) == 0 {
		return nil
	}
	maxInstr := base[len(base)-1].Counters[counters.Instructions]
	if ti := target[len(target)-1].Counters[counters.Instructions]; ti < maxInstr {
		maxInstr = ti
	}

	var out []PeriodBreakdown
	var prevBase, prevTarget counters.Snapshot
	for start := uint64(0); float64(start+periodInstr) <= maxInstr; start += periodInstr {
		end := float64(start + periodInstr)
		curBase := interpolate(base, end)
		curTarget := interpolate(target, end)
		pb := curBase.Delta(prevBase)
		pt := curTarget.Delta(prevTarget)
		out = append(out, PeriodBreakdown{
			StartInstr: start,
			Breakdown:  Analyze(pb, pt),
		})
		prevBase, prevTarget = curBase, curTarget
	}
	return out
}
