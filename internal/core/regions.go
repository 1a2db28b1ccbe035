package core

import (
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/vm"
)

// RegionStat accumulates per-object attribution: which allocation's
// demand misses stall the core, and for how long. This is the simulator
// equivalent of the paper's Pin + addr2line workflow (§5.7) that
// identified 605.mcf's two hot 2 GB objects.
type RegionStat struct {
	Object       vm.Object
	DemandMisses uint64
	StallCycles  float64
}

// SetRegions enables per-object attribution for the given allocations.
// Call before running a workload; pass nil to disable.
func (m *Machine) SetRegions(objs []vm.Object) {
	m.regions = m.regions[:0]
	for _, o := range objs {
		m.regions = append(m.regions, RegionStat{Object: o})
	}
}

// RegionStats returns the accumulated attribution.
func (m *Machine) RegionStats() []RegionStat { return m.regions }

// regionIndex finds the region containing addr (-1 if none). Linear
// scan: placement analyses track a handful of objects.
func (m *Machine) regionIndex(addr uint64) int {
	for i := range m.regions {
		if m.regions[i].Object.Contains(addr) {
			return i
		}
	}
	return -1
}

// Preload installs an address range into the LLC as already-resident
// clean lines, modelling the steady-state residency a long-running
// program would have built up — simulation windows are far too short to
// warm hundreds of megabytes organically. Total preloading is capped at
// 85% of LLC capacity; later calls preload less once the budget is
// spent. Each call also pushes the first min(n, half the L2) of its n
// lines through the L2, in order. The cap is per call, so several calls
// push more than the L2 holds, and each L2 set keeps only the last
// ways lines to reach it. When a hot set and four streams each push
// half the L2's lines through it, only the last two streams' lines
// survive (TestPreloadL2Survivors).
func (m *Machine) Preload(base, size uint64) {
	capacity := uint64(float64(m.l3.Sets()*m.l3.Ways()) * 0.85)
	l2cap := uint64(float64(m.l2.Sets()*m.l2.Ways()) * 0.5)
	if m.preloaded >= capacity {
		return
	}
	n := min(size/mem.LineSize, capacity-m.preloaded)
	m.l3.PreloadRange(base, n)
	m.l2.PreloadRange(base, min(n, l2cap))
	m.preloaded += n
}
