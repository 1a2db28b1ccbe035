package spa

import (
	"math"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/vm"
	"github.com/moatlab/melody/internal/workload"
)

type fixedDev struct{ lat float64 }

func (d *fixedDev) Access(now float64, addr uint64, kind mem.Kind) float64 {
	if kind == mem.Write {
		return now + d.lat/4
	}
	return now + d.lat
}
func (d *fixedDev) Name() string           { return "fixed" }
func (d *fixedDev) Reset()                 {}
func (d *fixedDev) Stats() mem.DeviceStats { return mem.DeviceStats{} }

// runWorkload executes a profile on a device and returns counters plus
// samples.
func runWorkload(p workload.Profile, lat float64, instr uint64, sample float64) ([]sampler.Sample, counters.Snapshot) {
	w := workload.NewSynthetic("t", p, 1)
	smp := sampler.New(nil)
	m := core.New(core.Config{
		CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: lat},
		MaxInstructions: instr, Sampler: smp, Cadence: core.EveryNs(sample),
	})
	w.Run(m)
	return smp.Samples(), m.Counters()
}

func TestAnalyzeEstimatorsAgree(t *testing.T) {
	p := workload.Profile{WorkingSetMB: 256, MemRatio: 0.35, DepFrac: 0.6, StoreFrac: 0.2}
	_, base := runWorkload(p, 100, 200_000, 0)
	_, target := runWorkload(p, 350, 200_000, 0)
	b := Analyze(base, target)
	if b.Actual < 0.3 {
		t.Fatalf("expected a sizeable slowdown, got %v", b.Actual)
	}
	et, eb, em := AccuracyErrors(b)
	if et > 0.05 || eb > 0.05 || em > 0.08 {
		t.Fatalf("estimator errors too large: Δs=%v backend=%v memory=%v (S=%v)", et, eb, em, b.Actual)
	}
	// Error ordering: the Δs estimator must be at least as tight as the
	// memory-only one on average (it includes all stall sources).
	if et > em+1e-9 {
		t.Fatalf("Δs error (%v) worse than memory-only (%v)", et, em)
	}
}

func TestBreakdownSumsToActual(t *testing.T) {
	p := workload.Profile{WorkingSetMB: 256, MemRatio: 0.35, DepFrac: 0.5, StoreFrac: 0.3}
	_, base := runWorkload(p, 100, 200_000, 0)
	_, target := runWorkload(p, 300, 200_000, 0)
	b := Analyze(base, target)
	if math.Abs(b.Sum()+b.Other-b.Actual) > 1e-9 {
		t.Fatalf("components (%v) + other (%v) != actual (%v)", b.Sum(), b.Other, b.Actual)
	}
	if math.Abs(b.Other) > 0.1*math.Abs(b.Actual)+0.02 {
		t.Fatalf("unattributed share too large: other=%v of %v", b.Other, b.Actual)
	}
}

func TestDRAMDominatesForChase(t *testing.T) {
	p := workload.Profile{WorkingSetMB: 512, MemRatio: 0.4, DepFrac: 1}
	_, base := runWorkload(p, 100, 150_000, 0)
	_, target := runWorkload(p, 400, 150_000, 0)
	b := Analyze(base, target)
	if b.DRAM < 0.7*b.Actual {
		t.Fatalf("pointer chase: DRAM share %v of %v", b.DRAM, b.Actual)
	}
}

func TestStoreDominatesForWriteBlast(t *testing.T) {
	p := workload.Profile{WorkingSetMB: 512, MemRatio: 0.6, StoreFrac: 1}
	_, base := runWorkload(p, 100, 150_000, 0)
	_, target := runWorkload(p, 400, 150_000, 0)
	b := Analyze(base, target)
	if b.Store < 0.5*b.Actual {
		t.Fatalf("store blast: store share %v of %v", b.Store, b.Actual)
	}
}

func TestZeroBaselineSafe(t *testing.T) {
	b := Analyze(counters.Snapshot{}, counters.Snapshot{})
	if b.Actual != 0 || b.EstTotal != 0 {
		t.Fatalf("zero baseline produced %+v", b)
	}
}

func TestAnalyzePeriods(t *testing.T) {
	// Phased workload: memory-heavy then light; per-period breakdowns
	// must show higher slowdown in the heavy phases.
	// The light phase must be genuinely compute-dominated to contrast
	// with the heavy one (memory cost per op dwarfs compute per op).
	p := workload.Profile{
		WorkingSetMB: 256, MemRatio: 0.4, DepFrac: 0.8,
		PhaseInstr: 50_000, PhaseMemMult: []float64{1.5, 0.002},
	}
	baseS, _ := runWorkload(p, 100, 400_000, 500)
	targetS, _ := runWorkload(p, 400, 400_000, 500)
	periods := AnalyzePeriods(baseS, targetS, 50_000)
	if len(periods) < 6 {
		t.Fatalf("got %d periods", len(periods))
	}
	// Alternating phases: compare mean slowdown of even vs odd periods.
	var heavy, light float64
	var nh, nl int
	for _, pb := range periods {
		if (pb.StartInstr/50_000)%2 == 0 {
			heavy += pb.Actual
			nh++
		} else {
			light += pb.Actual
			nl++
		}
	}
	heavy /= float64(nh)
	light /= float64(nl)
	if heavy < light*1.5 {
		t.Fatalf("period analysis missed phases: heavy=%v light=%v", heavy, light)
	}
}

func TestAnalyzePeriodsEmpty(t *testing.T) {
	if got := AnalyzePeriods(nil, nil, 1000); got != nil {
		t.Fatalf("empty input produced %v", got)
	}
}

func TestAdviseRanksHotObject(t *testing.T) {
	stats := []core.RegionStat{
		{Object: vm.Object{Name: "cold", Base: 0, Size: 100}, DemandMisses: 10, StallCycles: 100},
		{Object: vm.Object{Name: "hot", Base: 200, Size: 100}, DemandMisses: 1000, StallCycles: 90_000},
		{Object: vm.Object{Name: "warm", Base: 400, Size: 100}, DemandMisses: 100, StallCycles: 9_900},
	}
	advice := Advise(stats)
	if advice[0].Name != "hot" {
		t.Fatalf("top object = %s", advice[0].Name)
	}
	if advice[0].StallShare < 0.85 {
		t.Fatalf("hot share = %v", advice[0].StallShare)
	}
	top := TopObjects(advice, 0.8)
	if len(top) != 1 || top[0] != "hot" {
		t.Fatalf("TopObjects = %v", top)
	}
}

func TestRegionAttributionEndToEnd(t *testing.T) {
	// A synthetic workload with a hot object: region stats must
	// attribute most stalls to it.
	p := workload.Profile{WorkingSetMB: 64, MemRatio: 0.4, DepFrac: 0.8, HotFrac: 0.8, HotSetMB: 48}
	w := workload.NewSynthetic("hot", p, 1)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 300}, MaxInstructions: 150_000})
	m.SetRegions(w.Arena().Objects())
	w.Run(m)
	advice := Advise(m.RegionStats())
	if len(advice) == 0 || advice[0].Name != "hot" {
		t.Fatalf("expected hot object first, got %+v", advice)
	}
}
