package workload

import (
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/platform"
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

func runProfile(t *testing.T, p Profile, instr uint64, lat float64) counters.Snapshot {
	t.Helper()
	w := NewSynthetic("test", p, 1)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: lat}, MaxInstructions: instr})
	w.Run(m)
	return m.Counters()
}

func TestSyntheticRespectsBudget(t *testing.T) {
	c := runProfile(t, Profile{WorkingSetMB: 64, MemRatio: 0.3}, 50_000, 100)
	if c[counters.Instructions] < 50_000 {
		t.Fatalf("ran only %v instructions", c[counters.Instructions])
	}
	if c[counters.Instructions] > 60_000 {
		t.Fatalf("overshot budget: %v", c[counters.Instructions])
	}
}

func TestSyntheticMemRatio(t *testing.T) {
	c := runProfile(t, Profile{WorkingSetMB: 64, MemRatio: 0.25, StoreFrac: 0.2}, 100_000, 100)
	memOps := c[counters.DemandLoads] + c[counters.StoreOps]
	ratio := memOps / c[counters.Instructions]
	if ratio < 0.2 || ratio > 0.3 {
		t.Fatalf("memory ratio = %v, want ~0.25", ratio)
	}
	storeFrac := c[counters.StoreOps] / memOps
	if storeFrac < 0.15 || storeFrac > 0.25 {
		t.Fatalf("store fraction = %v, want ~0.2", storeFrac)
	}
}

func TestSyntheticLatencySensitivity(t *testing.T) {
	chase := Profile{WorkingSetMB: 256, MemRatio: 0.4, DepFrac: 1}
	fast := runProfile(t, chase, 100_000, 100)[counters.Cycles]
	slow := runProfile(t, chase, 100_000, 400)[counters.Cycles]
	if slow/fast < 2 {
		t.Fatalf("dependent profile: 4x latency gave only %vx cycles", slow/fast)
	}
	// Cache-resident footprint measured after a warmup phase: device
	// latency must barely matter.
	comp := Profile{WorkingSetMB: 0.125, MemRatio: 0.02, ILP: 3.5}
	warmRun := func(lat float64) float64 {
		w := NewSynthetic("comp", comp, 1)
		m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: lat}, MaxInstructions: 300_000})
		for _, o := range w.Arena().Objects() {
			m.Preload(o.Base, o.Size) // steady-state residency
		}
		w.Run(m) // warmup
		before := m.Counters()
		m.SetMaxInstructions(1_000_000)
		w.Run(m)
		return m.Counters()[counters.Cycles] - before[counters.Cycles]
	}
	fastC, slowC := warmRun(100), warmRun(400)
	if slowC/fastC > 1.2 {
		t.Fatalf("compute profile slowed %vx under latency", slowC/fastC)
	}
}

func TestSyntheticPhases(t *testing.T) {
	p := Profile{WorkingSetMB: 128, MemRatio: 0.3, PhaseInstr: 10_000, PhaseMemMult: []float64{2, 0.1}}
	w := NewSynthetic("phased", p, 1)
	smp := sampler.New(nil)
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: 200},
		MaxInstructions: 100_000, Sampler: smp, Cadence: core.EveryNs(2_000)})
	w.Run(m)
	if len(smp.Samples()) < 5 {
		t.Fatalf("phased run produced %d samples", len(smp.Samples()))
	}
}

func TestCatalogSize(t *testing.T) {
	// Without app registration the base catalog holds 221 entries; the
	// apps add 30 (GAPBS) + 8 (Redis/memcached) + 6 (VoltDB) = 44 for
	// the paper's 265. The melody package registers them.
	base := len(Catalog()) - len(appSpecs)
	if base != 221 {
		t.Fatalf("base catalog has %d entries, want 221", base)
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalog() {
		if seen[s.Name] {
			t.Fatalf("duplicate workload name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Suite == "" {
			t.Fatalf("workload %q has no suite", s.Name)
		}
		if strings.TrimSpace(s.Name) == "" {
			t.Fatal("empty workload name")
		}
	}
}

func TestCatalogClassesCovered(t *testing.T) {
	for _, c := range []Class{ClassCompute, ClassLatency, ClassBandwidth, ClassMixed} {
		if len(ByClass(c)) == 0 {
			t.Fatalf("no workloads of class %v", c)
		}
	}
	// Roughly a quarter bandwidth-sensitive, per the paper's workload mix.
	bw := len(ByClass(ClassBandwidth))
	if frac := float64(bw) / float64(len(Catalog())); frac < 0.1 || frac > 0.4 {
		t.Fatalf("bandwidth-class fraction = %v", frac)
	}
}

func TestByNameAndSuite(t *testing.T) {
	if _, ok := ByName("605.mcf_s"); !ok {
		t.Fatal("605.mcf_s missing")
	}
	if _, ok := ByName("no-such-workload"); ok {
		t.Fatal("bogus name resolved")
	}
	if len(BySuite("SPEC CPU 2017")) != 43 {
		t.Fatalf("SPEC suite has %d entries, want 43", len(BySuite("SPEC CPU 2017")))
	}
}

func TestAllSpecsBuildable(t *testing.T) {
	for _, s := range Catalog() {
		if s.New != nil {
			continue // app workloads are exercised in their own packages
		}
		w := s.Build(1)
		if w == nil || w.Name() != s.Name {
			t.Fatalf("spec %q built %v", s.Name, w)
		}
	}
}

func TestSiblingsBuildThreads(t *testing.T) {
	dev := &fixedDev{lat: 100}
	sib := Siblings{Threads: 4, ReadFrac: 0.8, MLP: 4, WorkingSetMB: 16}
	threads := sib.BuildThreads(dev, 1)
	if len(threads) != 4 {
		t.Fatalf("built %d threads", len(threads))
	}
	for _, th := range threads {
		if next := th.Step(0); next <= 0 {
			t.Fatal("sibling thread did not schedule itself")
		}
	}
	if got := (Siblings{}).BuildThreads(dev, 1); got != nil {
		t.Fatal("zero siblings built threads")
	}
}
