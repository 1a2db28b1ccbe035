package melody

import (
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mio"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

// Ablations exercises the design choices DESIGN.md calls out:
// (a) hardware prefetchers on/off (the paper reports a 50% drop for
// 603.bwaves and 10% for bc-kron with prefetchers disabled);
// (b) the L2 streamer's in-flight budget, the mechanism behind the
// Figure 12 coverage loss;
// (c) the controller hiccup processes behind CXL-B's tail latencies.
func Ablations(ec *ExperimentContext) *Report {
	o := ec.Opts
	r := &Report{ID: "ablations", Title: "Model ablations"}
	RegisterWorkloads()
	emr := platform.EMR2S()

	// (a) prefetchers on/off for a streaming and a graph workload.
	r.Printf("[prefetchers on vs off] (local DRAM runtime)")
	for _, name := range []string{"603.bwaves_s", "bfs-kron"} {
		spec, ok := workload.ByName(name)
		if !ok {
			continue
		}
		on := ec.Runner(emr)
		off := ec.IsolatedRunner(emr)
		off.PrefetchersOff = true
		cOn := ec.Run(on, spec, Local(emr)).Cycles()
		cOff := ec.Run(off, spec, Local(emr)).Cycles()
		r.Printf("  %-14s prefetchers-off costs %+.0f%% runtime", name, (cOff/cOn-1)*100)
	}

	// (b) L2PF in-flight budget sweep on CXL-B for a stream workload.
	r.Printf("[L2 streamer in-flight budget] (stream on CXL-B)")
	spec, _ := workload.ByName("micro-seq-256m-mr25")
	instr := o.Instructions
	if instr == 0 {
		instr = 500_000
	}
	var m core.Machine
	for _, budget := range []int{8, 24, 64} {
		dev := emr.CXLDevice(cxl.ProfileB(), o.seed())
		w := spec.Build(o.seed())
		m.Reset(core.Config{CPU: emr.CPU, Device: dev,
			MaxInstructions: instr, L2PFMaxInflight: budget})
		w.Run(&m)
		c := m.Counters()
		r.Printf("  budget %2d: IPC %.2f  L2PF dropped %6.0f  L1PF-L3-miss %6.0f",
			budget, c.IPC(), c[counters.L2PFDropped], c[counters.L1PFL3Miss])
	}

	// (c) CXL-B tails with and without controller hiccups.
	r.Printf("[controller hiccups] (CXL-B pointer-chase tail gap)")
	quiet := cxl.ProfileB()
	quiet.MC.HiccupPeriodNs = 0
	quiet.MC.MajorHiccupPeriodNs = 0
	for _, v := range []struct {
		name string
		prof cxl.Profile
	}{{"with hiccups", cxl.ProfileB()}, {"without", quiet}} {
		cfg := mio.DefaultConfig()
		cfg.DurationNs = o.durationNs() * 3
		cfg.Seed = o.seed()
		res := mio.Run(emr.CXLDevice(v.prof, o.seed()), cfg)
		r.Printf("  %-13s p50 %4.0f ns  p99.9 %5.0f ns  gap %4.0f ns",
			v.name, res.Percentile(50), res.Percentile(99.9), res.TailGap())
	}
	r.Note("prefetchers-off slows streaming workloads dramatically (paper: ~50%% for bwaves)")
	r.Note("larger L2PF budgets restore coverage under CXL latency")
	r.Note("removing hiccups collapses CXL-B's tail gap toward local/NUMA levels")
	return r
}
