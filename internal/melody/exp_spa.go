package melody

import (
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/obs/tracespan"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/spa"
	"github.com/moatlab/melody/internal/stats"
	"github.com/moatlab/melody/internal/topology"
	"github.com/moatlab/melody/internal/workload"
)

// Table2 documents the nine Spa counters.
func Table2(ec *ExperimentContext) *Report {
	r := &Report{ID: "table2", Title: "CPU counters for Spa"}
	descs := []string{
		"#c while mem subsys has >=1 outstanding load",
		"#c where the store buffer was full",
		"#c while an L1-miss demand load is outstanding",
		"#c while an L2-miss demand load is outstanding",
		"#c while an L3-miss demand load is outstanding",
		"#c without retired uops",
		"#c when 1 uop was executed on all ports",
		"#c when 2 uops were executed on all ports",
		"#c stalled on serializing operations",
	}
	for i, id := range counters.SpaSet() {
		r.Printf("  P%d %-18s %s", i+1, id.String(), descs[i])
	}
	return r
}

// Fig11 regenerates the Spa accuracy CDFs: |estimate - actual| for the
// three estimators, across the catalog on NUMA, CXL-A, and CXL-B.
func Fig11(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig11", Title: "Spa estimator accuracy (|estimated - actual| slowdown)"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	emr := platform.EMR2S()
	run := ec.Runner(emr)
	targets := []MemConfig{NUMA(emr), CXL(emr, cxl.ProfileA()), CXL(emr, cxl.ProfileB())}
	ec.Declare(run, Cells(specs, append([]MemConfig{Local(emr)}, targets...)...))
	for _, mc := range targets {
		var errTotal, errBackend, errMemory []float64
		for _, s := range specs {
			base := ec.Run(run, s, Local(emr))
			tgt := ec.Run(run, s, mc)
			b := spa.Analyze(base.Delta, tgt.Delta)
			et, eb, em := spa.AccuracyErrors(b)
			errTotal = append(errTotal, et)
			errBackend = append(errBackend, eb)
			errMemory = append(errMemory, em)
		}
		within := func(errs []float64, lim float64) float64 {
			return fractionBelow(errs, lim) * 100
		}
		r.Printf("  %-8s ds:      <=2%%: %5.1f%%  <=5%%: %5.1f%%  p99 err: %5.2f%%",
			mc.Name, within(errTotal, 0.02), within(errTotal, 0.05), stats.Percentile(errTotal, 99)*100)
		r.Printf("  %-8s backend: <=2%%: %5.1f%%  <=5%%: %5.1f%%  p99 err: %5.2f%%",
			"", within(errBackend, 0.02), within(errBackend, 0.05), stats.Percentile(errBackend, 99)*100)
		r.Printf("  %-8s memory:  <=2%%: %5.1f%%  <=5%%: %5.1f%%  p99 err: %5.2f%%",
			"", within(errMemory, 0.02), within(errMemory, 0.05), stats.Percentile(errMemory, 99)*100)
	}
	r.Note("ds within 5%% for ~100%% of workloads; backend for ~96%%; memory-only for ~95%%")
	return r
}

// pfSensitive selects the prefetch-sensitive (streaming) workloads the
// Figure 12 analysis applies to.
func pfSensitive(max int) []workload.Spec {
	var out []workload.Spec
	for _, s := range selectWorkloads(0) {
		if s.Profile.SeqFrac >= 0.5 && s.New == nil {
			out = append(out, s)
		}
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Fig12a regenerates the L1PF/L2PF miss-shift scatter: under CXL the
// decrease in L2PF-L3-misses is matched by an increase in
// L1PF-L3-misses (y=x, Pearson ~0.99).
func Fig12a(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig12a", Title: "L1PF-L3-miss increase vs L2PF-L3-miss decrease"}
	max := ec.Opts.MaxWorkloads
	if max == 0 {
		max = 24
	}
	specs := pfSensitive(max)
	emr := platform.EMR2S()
	run := ec.Runner(emr)
	ec.Declare(run, Cells(specs, Local(emr), CXL(emr, cxl.ProfileB())))
	var dec, inc []float64
	for _, s := range specs {
		base := ec.Run(run, s, Local(emr))
		tgt := ec.Run(run, s, CXL(emr, cxl.ProfileB()))
		d := tgt.Delta.Delta(base.Delta)
		decL2 := -d[counters.L2PFL3Miss]
		incL1 := d[counters.L1PFL3Miss]
		if decL2 > 0 || incL1 > 0 {
			dec = append(dec, decL2)
			inc = append(inc, incL1)
			r.Printf("  %-26s L2PF-L3-miss %+8.0f   L1PF-L3-miss %+8.0f",
				s.Name, -decL2, incL1)
		}
	}
	slope, _ := stats.LinearFit(dec, inc)
	r.Printf("  Pearson r = %.3f, slope = %.2f (n=%d)", stats.Pearson(dec, inc), slope, len(dec))
	r.Note("strong linear relationship near y=x (paper: Pearson 0.99)")
	return r
}

// Fig12b regenerates the per-workload link between L2 cache slowdown
// and L2 prefetcher coverage loss.
func Fig12b(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig12b", Title: "L2 slowdown vs L2PF coverage decrease"}
	max := ec.Opts.MaxWorkloads
	if max == 0 {
		max = 20
	}
	specs := pfSensitive(max)
	emr := platform.EMR2S()
	run := ec.Runner(emr)
	ec.Declare(run, Cells(specs, Local(emr), CXL(emr, cxl.ProfileB())))
	coverage := func(c counters.Snapshot) float64 {
		covered := c[counters.L2PFL3Miss] + c[counters.L2PFL3Hit]
		all := covered + c[counters.L1PFL3Miss] + c[counters.DemandL3Miss]
		if all == 0 {
			return 0
		}
		return covered / all
	}
	var slowdowns, covDrops []float64
	for _, s := range specs {
		base := ec.Run(run, s, Local(emr))
		tgt := ec.Run(run, s, CXL(emr, cxl.ProfileB()))
		b := spa.Analyze(base.Delta, tgt.Delta)
		drop := coverage(base.Delta) - coverage(tgt.Delta)
		slowdowns = append(slowdowns, b.L1+b.L2+b.L3)
		covDrops = append(covDrops, drop)
		r.Printf("  %-26s cache slowdown %6.1f%%   L2PF coverage drop %6.1f%%",
			s.Name, (b.L1+b.L2+b.L3)*100, drop*100)
	}
	r.Printf("  Pearson(cache slowdown, coverage drop) = %.3f", stats.Pearson(slowdowns, covDrops))
	r.Note("workloads with cache slowdown consistently lose L2PF coverage (2-38%% in the paper)")
	return r
}

// Fig14 regenerates the per-workload slowdown breakdown for NUMA,
// CXL-A, and CXL-B across the suites.
func Fig14(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig14", Title: "Spa slowdown breakdown per workload"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	emr := platform.EMR2S()
	run := ec.Runner(emr)
	targets := []MemConfig{NUMA(emr), CXL(emr, cxl.ProfileA()), CXL(emr, cxl.ProfileB())}
	ec.Declare(run, Cells(specs, append([]MemConfig{Local(emr)}, targets...)...))
	for _, mc := range targets {
		r.Printf("[%s]", mc.Name)
		r.Printf("  %-26s %7s %7s %6s %6s %6s %6s %6s %6s", "workload",
			"total", "DRAM", "L3", "L2", "L1", "store", "core", "other")
		for _, s := range specs {
			base := ec.Run(run, s, Local(emr))
			tgt := ec.Run(run, s, mc)
			b := spa.Analyze(base.Delta, tgt.Delta)
			r.Printf("  %-26s %6.1f%% %6.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%",
				s.Name, b.Actual*100, b.DRAM*100, b.L3*100, b.L2*100, b.L1*100,
				b.Store*100, b.Core*100, b.Other*100)
		}
	}
	r.Note("slowdown sources vary: store-buffer-bound (random-store kernels), cache/prefetch-bound (streams), demand-read-bound (graph, Redis, VoltDB)")
	return r
}

// Fig15 regenerates the CDFs of per-component slowdowns across the
// catalog.
func Fig15(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig15", Title: "Slowdown-component CDFs (CXL-B)"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	emr := platform.EMR2S()
	run := ec.Runner(emr)
	ec.Declare(run, Cells(specs, Local(emr), CXL(emr, cxl.ProfileB())))
	comp := map[string][]float64{}
	for _, s := range specs {
		base := ec.Run(run, s, Local(emr))
		tgt := ec.Run(run, s, CXL(emr, cxl.ProfileB()))
		b := spa.Analyze(base.Delta, tgt.Delta)
		comp["Store"] = append(comp["Store"], b.Store)
		comp["L1"] = append(comp["L1"], b.L1)
		comp["L2"] = append(comp["L2"], b.L2)
		comp["L3"] = append(comp["L3"], b.L3)
		comp["DRAM"] = append(comp["DRAM"], b.DRAM)
	}
	for _, name := range []string{"Store", "L1", "L2", "L3", "DRAM"} {
		xs := comp[name]
		over5 := (1 - fractionBelow(xs, 0.05)) * 100
		r.Printf("  %-6s >=5%% slowdown for %5.1f%% of workloads (p50 %5.1f%%, p90 %6.1f%%, max %7.1f%%)",
			name, over5, stats.Percentile(xs, 50)*100, stats.Percentile(xs, 90)*100, stats.Max(xs)*100)
	}
	r.Note("40%%+ of workloads see >=5%% demand-read (DRAM) slowdown; 15%%+ see >=5%% cache slowdown")
	return r
}

// Fig16 regenerates the period-based breakdown time series for the
// paper's three phased SPEC workloads on CXL-B. The period analysis
// samples every 2000 simulated ns, a runner-level knob, so it runs on
// isolated runners rather than mutating the shared one. Under a cycle
// cadence (-sample-every) the declared cells keep that cadence, so
// telemetry exports their streams as for any other figure, and the
// report reads the same cells rerun untraced at 2000 ns: equal seeds
// give equal counters.
func Fig16(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig16", Title: "Period-based slowdown breakdown (CXL-B)"}
	RegisterWorkloads()
	emr := platform.EMR2S()
	periodic := core.EveryNs(2_000) // "1 ms" sampling scaled to sim windows
	for _, name := range []string{"602.gcc_s", "605.mcf_s", "631.deepsjeng_s"} {
		spec, ok := workload.ByName(name)
		if !ok {
			continue
		}
		run := ec.IsolatedRunner(emr)
		if run.Cadence.Period == 0 {
			run.Cadence = periodic
		}
		cells := Cells([]workload.Spec{spec}, Local(emr), CXL(emr, cxl.ProfileB()))
		ec.Declare(run, cells)
		base := ec.Run(run, spec, Local(emr))
		tgt := ec.Run(run, spec, CXL(emr, cxl.ProfileB()))
		if run.Cadence != periodic {
			quiet := ec.IsolatedRunner(emr)
			quiet.Obs, quiet.Cadence = nil, periodic
			if res, err := quiet.RunAll(tracespan.WithSpan(ec.ctx, nil), cells); err == nil {
				base, tgt = res[0], res[1]
			}
		}
		period := run.Instructions / 12
		periods := spa.AnalyzePeriods(base.Samples, tgt.Samples, period)
		r.Printf("%s: %d periods of %d instructions", name, len(periods), period)
		for _, p := range periods {
			r.Printf("  @%9d  total %6.1f%%  DRAM %6.1f%%  cache %6.1f%%  store %6.1f%%  other %6.1f%%",
				p.StartInstr, p.Actual*100, p.DRAM*100, (p.L1+p.L2+p.L3)*100,
				p.Store*100, (p.Core+p.Other)*100)
		}
	}
	r.Note("per-period slowdowns expose phases the workload-level average hides (602.gcc's heavy first two-thirds)")
	return r
}

// Tuning regenerates the §5.7 placement use case: identify a
// latency-critical object with Spa attribution and relocate it to local
// DRAM, collapsing the slowdown.
func Tuning(ec *ExperimentContext) *Report {
	r := &Report{ID: "tuning", Title: "Spa-guided object placement (mcf-style workload)"}
	RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("605.mcf_s")
	run := ec.Runner(emr)
	cxlCfg := CXL(emr, cxl.ProfileA())
	ec.Declare(run, Cells([]workload.Spec{spec}, Local(emr), cxlCfg))

	base := ec.Run(run, spec, Local(emr))
	all := ec.Run(run, spec, cxlCfg)
	slowAll := (all.Cycles() - base.Cycles()) / base.Cycles()
	r.Printf("  all objects on CXL-A: slowdown %.1f%%", slowAll*100)

	advice := spa.Advise(all.Regions)
	for _, a := range advice {
		r.Printf("  object %-8s stall share %5.1f%%  miss share %5.1f%%",
			a.Name, a.StallShare*100, a.MissShare*100)
	}
	top := spa.TopObjects(advice, 0.55)
	r.Printf("  relocating %v to local DRAM...", top)

	// Rebuild the workload to learn its object addresses (the arena
	// layout depends only on the profile, not the seed), then place the
	// advised objects on local DRAM and the rest on CXL.
	w := spec.Build(run.Seed).(*workload.Synthetic)
	var regions []topology.Region
	localDev := emr.LocalDevice()
	for _, name := range top {
		if obj, ok := w.Arena().ByName(name); ok {
			regions = append(regions, topology.Region{Base: obj.Base, Size: obj.Size, Device: localDev})
		}
	}
	placed := MemConfig{Name: "CXL-A+placement", Build: func(seed uint64) mem.Device {
		dev, err := topology.NewPlacement("tiered", emr.CXLDevice(cxl.ProfileA(), seed), regions)
		if err != nil {
			panic(err)
		}
		return dev
	}}
	after := ec.Run(run, spec, placed)
	slowAfter := (after.Cycles() - base.Cycles()) / base.Cycles()
	r.Printf("  with hot objects on local DRAM: slowdown %.1f%%", slowAfter*100)
	r.Note("paper: relocating two hot objects cut 605.mcf's slowdown from 13%% to 2%%")
	return r
}
