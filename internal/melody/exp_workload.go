package melody

import (
	"fmt"

	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/stats"
	"github.com/moatlab/melody/internal/workload"
)

// selectWorkloads subsamples the catalog evenly (keeping suite
// diversity by stride) to at most max entries.
func selectWorkloads(max int) []workload.Spec {
	RegisterWorkloads()
	all := workload.Catalog()
	if max <= 0 || max >= len(all) {
		return all
	}
	out := make([]workload.Spec, 0, max)
	stride := float64(len(all)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, all[int(float64(i)*stride)])
	}
	return out
}

// cdfSummary prints the slowdown CDF highlights the paper quotes.
func cdfSummary(r *Report, name string, slowdowns []float64) {
	sorted := sortedCopy(slowdowns)
	r.Printf("  %-12s <5%%: %4.0f%%  <10%%: %4.0f%%  <50%%: %4.0f%%  p90: %6.1f%%  max: %7.1f%%",
		name,
		fractionBelow(sorted, 0.05)*100,
		fractionBelow(sorted, 0.10)*100,
		fractionBelow(sorted, 0.50)*100,
		stats.PercentileSorted(sorted, 90)*100,
		stats.PercentileSorted(sorted, 100)*100)
}

// Fig8a regenerates the slowdown CDFs over the catalog for NUMA and the
// four CXL devices on EMR (Figures 8a and 8b).
func Fig8a(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig8a", Title: "Slowdown CDFs across devices (EMR host)"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	emr := platform.EMR2S()
	emrP := platform.EMR2SPrime()
	run := ec.Runner(emr)
	runP := ec.Runner(emrP)

	// The paper evaluates only 60 workloads on CXL-C (16 GB capacity).
	small := specs
	if len(small) > 60 {
		small = small[:60]
	}
	cells := Cells(specs, Local(emr), NUMA(emr), CXL(emr, cxl.ProfileA()), CXL(emr, cxl.ProfileB()))
	cells = append(cells, Cells(small, CXL(emr, cxl.ProfileC()))...)
	ec.Declare(run, cells)
	ec.Declare(runP, Cells(specs, Local(emrP), CXL(emrP, cxl.ProfileD())))

	r.Printf("%d workloads:", len(specs))
	cdfSummary(r, "NUMA", ec.Slowdowns(run, specs, NUMA(emr)))
	cdfSummary(r, "CXL-D", ec.Slowdowns(runP, specs, CXL(emrP, cxl.ProfileD())))
	cdfSummary(r, "CXL-A", ec.Slowdowns(run, specs, CXL(emr, cxl.ProfileA())))
	cdfSummary(r, "CXL-B", ec.Slowdowns(run, specs, CXL(emr, cxl.ProfileB())))
	cdfSummary(r, "CXL-C", ec.Slowdowns(run, small, CXL(emr, cxl.ProfileC())))
	r.Note("ordering NUMA <= CXL-D <= CXL-A <= CXL-B <= CXL-C across the CDF")
	r.Note("many workloads tolerate CXL: tens of percent of the catalog under 10%% slowdown on D/A")
	r.Note("a bandwidth-bound tail reaches 1.5-5.8x on CXL-A/B but not on NUMA/CXL-D")
	return r
}

// Fig8c regenerates the CXL+NUMA vs 2-hop-NUMA comparison: despite
// better nominal latency/bandwidth, CXL+NUMA behaves worse for many
// workloads because of tail pathologies.
func Fig8c(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig8c", Title: "CXL+NUMA vs 2-hop NUMA (SKX8S-410ns)"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	// The paper uses the 121 workloads runnable on both setups; we use
	// the non-bandwidth classes (the comparison is about latency).
	var subset []workload.Spec
	for _, s := range specs {
		if s.Class != workload.ClassBandwidth {
			subset = append(subset, s)
		}
	}
	emr := platform.EMR2S()
	skx8 := platform.SKX8S()
	runEMR := ec.Runner(emr)
	runSKX := ec.Runner(skx8)
	ec.Declare(runEMR, Cells(subset, Local(emr), CXL(emr, cxl.ProfileA()), CXLNUMA(emr, cxl.ProfileA())))
	ec.Declare(runSKX, Cells(subset, Local(skx8), NUMA(skx8)))

	r.Printf("%d workloads:", len(subset))
	cdfSummary(r, "CXL-A", ec.Slowdowns(runEMR, subset, CXL(emr, cxl.ProfileA())))
	cdfSummary(r, "SKX8S-410ns", ec.Slowdowns(runSKX, subset, NUMA(skx8)))
	cdfSummary(r, "CXL-A+NUMA", ec.Slowdowns(runEMR, subset, CXLNUMA(emr, cxl.ProfileA())))
	r.Note("CXL-A+NUMA is worse than plain 410 ns NUMA for much of the CDF despite better nominal specs")
	return r
}

// recordingDevice captures per-demand-read latencies.
type recordingDevice struct {
	inner mem.Device
	lats  []float64
}

func (d *recordingDevice) Name() string           { return d.inner.Name() }
func (d *recordingDevice) Reset()                 { d.inner.Reset(); d.lats = nil }
func (d *recordingDevice) Stats() mem.DeviceStats { return d.inner.Stats() }
func (d *recordingDevice) Access(now float64, addr uint64, kind mem.Kind) float64 {
	done := d.inner.Access(now, addr, kind)
	if kind == mem.DemandRead && len(d.lats) < 400_000 {
		d.lats = append(d.lats, done-now)
	}
	return done
}

// Fig8d regenerates the omnetpp deep-dive: memory-latency distributions
// under CXL-A vs CXL-A+NUMA at full, half, and quarter intensity.
// Its configs are latency-recording wrappers (impure by design) and its
// specs are intensity-scaled variants sharing the catalog name, so each
// intensity runs on an isolated runner rather than the shared cache.
func Fig8d(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig8d", Title: "520.omnetpp latency CDFs and load scaling"}
	RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("520.omnetpp_r")

	intensities := []struct {
		name  string
		scale float64
	}{{"full", 1}, {"1/2 load", 0.5}, {"1/4 load", 0.25}}

	for _, in := range intensities {
		// Scaling the paper's way: fewer simulated LANs shrink both the
		// event rate and the network state.
		s := spec
		s.Profile.MemRatio *= in.scale
		s.Profile.WorkingSetMB *= in.scale
		if in.scale > 0 {
			s.Siblings.DelayNs /= in.scale
		}
		run := ec.IsolatedRunner(emr)
		base := ec.Run(run, s, Local(emr))
		for _, mc := range []MemConfig{CXL(emr, cxl.ProfileA()), CXLNUMA(emr, cxl.ProfileA())} {
			// Record device-level latencies during the run.
			rec := &recordingDevice{}
			mcRec := MemConfig{Name: mc.Name, Build: func(seed uint64) mem.Device {
				rec.inner = mc.Build(seed)
				return rec
			}}
			tgt := ec.Run(run, s, mcRec)
			slow := (tgt.Cycles() - base.Cycles()) / base.Cycles()
			ps := stats.Percentiles(rec.lats, 50, 98, 99.9)
			r.Printf("  %-9s %-12s slowdown %6.1f%%  lat p50 %5.0f  p98 %6.0f  p99.9 %7.0f ns",
				in.name, mc.Name, slow*100, ps[0], ps[1], ps[2])
		}
	}
	r.Note("CXL-A+NUMA slowdown far exceeds plain CXL-A; its latency tail starts by ~p98")
	r.Note("halving and quartering intensity collapses both the tail and the slowdown")
	return r
}

// Fig8e contrasts SPR and EMR: the bigger LLC alone does not change the
// slowdown picture.
func Fig8e(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig8e", Title: "SPR vs EMR slowdown CDFs (CXL-A/B)"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	spr, emr := platform.SPR2S(), platform.EMR2S()
	runSPR, runEMR := ec.Runner(spr), ec.Runner(emr)
	ec.Declare(runSPR, Cells(specs, Local(spr), CXL(spr, cxl.ProfileA()), CXL(spr, cxl.ProfileB())))
	ec.Declare(runEMR, Cells(specs, Local(emr), CXL(emr, cxl.ProfileA()), CXL(emr, cxl.ProfileB())))
	cdfSummary(r, "SPR:CXL-A", ec.Slowdowns(runSPR, specs, CXL(spr, cxl.ProfileA())))
	cdfSummary(r, "EMR:CXL-A", ec.Slowdowns(runEMR, specs, CXL(emr, cxl.ProfileA())))
	cdfSummary(r, "SPR:CXL-B", ec.Slowdowns(runSPR, specs, CXL(spr, cxl.ProfileB())))
	cdfSummary(r, "EMR:CXL-B", ec.Slowdowns(runEMR, specs, CXL(emr, cxl.ProfileB())))
	r.Note("EMR's larger LLC leaves the slowdown pattern similar to SPR")
	return r
}

// Fig8f compares NUMA vs one and two hardware-interleaved CXL-D devices
// over the SPEC suite: matching bandwidth closes most of the gap.
func Fig8f(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig8f", Title: "NUMA vs CXL-D x1/x2 (SPEC CPU 2017 on EMR')"}
	RegisterWorkloads()
	specs := workload.BySuite("SPEC CPU 2017")
	if ec.Opts.MaxWorkloads > 0 && ec.Opts.MaxWorkloads < len(specs) {
		specs = specs[:ec.Opts.MaxWorkloads]
	}
	emrP := platform.EMR2SPrime()
	run := ec.Runner(emrP)
	ec.Declare(run, Cells(specs, Local(emrP), NUMA(emrP),
		CXLInterleave(emrP, cxl.ProfileD(), 2), CXL(emrP, cxl.ProfileD())))
	cdfSummary(r, "NUMA*", ec.Slowdowns(run, specs, NUMA(emrP)))
	cdfSummary(r, "CXL-D x2", ec.Slowdowns(run, specs, CXLInterleave(emrP, cxl.ProfileD(), 2)))
	cdfSummary(r, "CXL-D x1", ec.Slowdowns(run, specs, CXL(emrP, cxl.ProfileD())))
	r.Note("interleaving two CXL-D devices reduces the worst slowdowns toward the NUMA curve")
	return r
}

// Fig9a regenerates the violin plot data: slowdown distributions for
// the catalog across all 11 latency setups.
func Fig9a(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig9a", Title: "Slowdown distributions across 11 setups (140-410 ns)"}
	specs := selectWorkloads(ec.Opts.MaxWorkloads)
	for _, setup := range platform.LatencySetups() {
		run := ec.Runner(setup.Platform)
		mc := MemConfig{Name: setup.Name, Build: setup.Build}
		ec.Declare(run, Cells(specs, Local(setup.Platform), mc))
		s := ec.Slowdowns(run, specs, mc)
		sum := stats.Summarize(s)
		r.Printf("  %-12s (ref %3.0f ns): p25 %6.1f%%  p50 %6.1f%%  p75 %6.1f%%  p90 %7.1f%%  max %8.1f%%  [<10%%: %3.0f%%, <50%%: %3.0f%%]",
			setup.Name, setup.RefLatencyNs,
			sum.P25*100, sum.P50*100, sum.P75*100, sum.P90*100, sum.Max*100,
			fractionBelow(s, 0.10)*100, fractionBelow(s, 0.50)*100)
	}
	r.Note("slowdowns worsen with setup latency; at 410 ns a meaningful fraction still stays under 10%%")
	return r
}

// Fig9b regenerates the YCSB slowdowns on the Redis-like and
// VoltDB-like stores under NUMA, CXL-A, CXL-B.
func Fig9b(ec *ExperimentContext) *Report {
	r := &Report{ID: "fig9b", Title: "YCSB A-F slowdowns on Redis and VoltDB"}
	RegisterWorkloads()
	emr := platform.EMR2S()
	run := ec.Runner(emr)
	configs := []MemConfig{NUMA(emr), CXL(emr, cxl.ProfileA()), CXL(emr, cxl.ProfileB())}
	var specs []workload.Spec
	for _, store := range []string{"redis-ycsb-", "voltdb-ycsb-"} {
		for _, wl := range []string{"A", "B", "C", "D", "E", "F"} {
			if spec, ok := workload.ByName(store + wl); ok {
				specs = append(specs, spec)
			}
		}
	}
	ec.Declare(run, Cells(specs, append([]MemConfig{Local(emr)}, configs...)...))
	for _, spec := range specs {
		line := "  " + spec.Name + ":"
		for _, mc := range configs {
			line += "  " + mc.Name + " " + percent(ec.Slowdown(run, spec, mc))
		}
		r.Printf("%s", line)
	}
	r.Note("slowdowns grow super-linearly from NUMA to CXL-A to CXL-B")
	r.Note("both stores degrade super-linearly; the SQL-heavy table store dilutes memory time slightly")
	return r
}

// percent formats a slowdown fraction as "12.3%".
func percent(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
