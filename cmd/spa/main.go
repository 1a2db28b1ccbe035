// Command spa runs the Stall-based CXL performance analysis on one
// catalog workload: overall slowdown breakdown plus the period-based
// time series (paper §5).
//
// Usage:
//
//	spa -workload 605.mcf_s [-config CXL-A] [-platform EMR2S]
//	    [-instructions N] [-periods N]
//	spa -workload 605.mcf_s -explain [-sample-every N] [-csv FILE]
//	spa -workload 605.mcf_s -profile FILE
//	spa -list
//
// The period table samples every 2000 simulated ns. -explain drives
// the period analysis from cycle-sampled streams (every -sample-every
// cycles) instead and prints a phase-resolved narrative: contiguous
// periods that share a dominant stall source are merged into phases,
// and each phase's added stalls are attributed to the CXL device's
// CPMU time split. -csv additionally exports the target run's sampled
// stream as CSV. The cycle-sampled cells run only when -explain, -csv
// or -profile asks for them.
//
// -profile writes the target run's simulated-time pprof profile
// (stall-attributed sim_cycles/sim_ns over synthetic stacks) to FILE;
// inspect with `go tool pprof -top FILE`. Output paths are validated at
// flag-parse time so a typo fails before the simulation runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/sampler"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/spa"
	"github.com/moatlab/melody/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// parseConfig resolves a -config value against a platform: NUMA, a CXL
// profile name, or "<profile>+NUMA" for the interleaved placement.
func parseConfig(p platform.Platform, config string) (melody.MemConfig, bool) {
	if config == "NUMA" {
		return melody.NUMA(p), true
	}
	if prof, ok := cxl.ProfileByName(config); ok {
		return melody.CXL(p, prof), true
	}
	if len(config) > 5 && config[len(config)-5:] == "+NUMA" {
		if prof, ok := cxl.ProfileByName(config[:len(config)-5]); ok {
			return melody.CXLNUMA(p, prof), true
		}
	}
	return melody.MemConfig{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "catalog workload name")
	config := fs.String("config", "CXL-A", "target config: NUMA, CXL-A..CXL-D, CXL-A+NUMA")
	plat := fs.String("platform", "EMR2S", "host platform")
	instructions := fs.Uint64("instructions", 1_200_000, "measurement window")
	periods := fs.Int("periods", 10, "instruction periods for the time series")
	explain := fs.Bool("explain", false, "emit the phase-resolved narrative from cycle-sampled streams")
	sampleEvery := fs.Uint64("sample-every", 0, "sampling cadence in simulated cycles (0 = auto with -explain)")
	csvPath := fs.String("csv", "", "write the target run's sampled stream as CSV to <file>")
	profilePath := fs.String("profile", "", "write the target run's simulated-time pprof profile to <file>")
	list := fs.Bool("list", false, "list catalog workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, out := range []struct{ flag, path string }{
		{"-csv", *csvPath}, {"-profile", *profilePath},
	} {
		if out.path == "" {
			continue
		}
		if err := obs.EnsureWritableFile(out.path); err != nil {
			fmt.Fprintf(stderr, "spa: %s: %v\n", out.flag, err)
			return 2
		}
	}

	melody.RegisterWorkloads()
	if *list {
		for _, s := range workload.Catalog() {
			fmt.Fprintf(stdout, "  %-28s %-14s %s\n", s.Name, s.Suite, s.Class)
		}
		return 0
	}
	spec, ok := workload.ByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "spa: unknown workload %q (use -list)\n", *name)
		return 1
	}
	p, ok := platform.PlatformByName(*plat)
	if !ok {
		fmt.Fprintf(stderr, "spa: unknown platform %q\n", *plat)
		return 1
	}
	target, ok := parseConfig(p, *config)
	if !ok {
		fmt.Fprintf(stderr, "spa: unknown config %q\n", *config)
		return 1
	}

	ctx := context.Background()
	cell := func(cadence core.Cadence, mc melody.MemConfig) melody.Result {
		runner := melody.NewRunner(p)
		runner.Instructions = *instructions
		runner.Cadence = cadence
		res, _ := runner.RunCtx(ctx, melody.RunRequest{Spec: spec, Config: mc})
		return res
	}
	periodic := core.EveryNs(2_000)
	base, tgt := cell(periodic, melody.Local(p)), cell(periodic, target)
	b := spa.Analyze(base.Delta, tgt.Delta)

	fmt.Fprintf(stdout, "%s on %s vs local DRAM (%s):\n", spec.Name, target.Name, p.CPU.Name)
	fmt.Fprintf(stdout, "  actual slowdown     %7.1f%%\n", b.Actual*100)
	fmt.Fprintf(stdout, "  ds estimate         %7.1f%%   backend %7.1f%%   memory %7.1f%%\n",
		b.EstTotal*100, b.EstBackend*100, b.EstMemory*100)
	fmt.Fprintf(stdout, "  breakdown: DRAM %6.1f%%  L3 %5.1f%%  L2 %5.1f%%  L1 %5.1f%%  store %5.1f%%  core %5.1f%%  other %5.1f%%\n",
		b.DRAM*100, b.L3*100, b.L2*100, b.L1*100, b.Store*100, b.Core*100, b.Other*100)

	if *periods > 0 {
		per := *instructions / uint64(*periods)
		series := spa.AnalyzePeriods(base.Samples, tgt.Samples, per)
		fmt.Fprintf(stdout, "period-based breakdown (%d instructions per period):\n", per)
		for _, pb := range series {
			fmt.Fprintf(stdout, "  @%10d  total %6.1f%%  DRAM %6.1f%%  cache %6.1f%%  store %6.1f%%\n",
				pb.StartInstr, pb.Actual*100, pb.DRAM*100, (pb.L1+pb.L2+pb.L3)*100, pb.Store*100)
		}
	}

	if !*explain && *csvPath == "" && *profilePath == "" {
		return 0
	}
	// The cycle-sampled cells default to a cadence fine enough for
	// ~dozens of samples per period; equal seeds give them the same
	// counters as the cells above.
	every := *sampleEvery
	if every == 0 {
		every = 4096
	}
	tgt = cell(core.EveryCycles(every), target)

	if *explain {
		per := *instructions / uint64(max(*periods, 1))
		base = cell(core.EveryCycles(every), melody.Local(p))
		periods := spa.AnalyzePeriods(base.Samples, tgt.Samples, per)
		rep := spa.NewReport(periods, per)
		rep.AttributeDevice(tgt.Samples)
		fmt.Fprintf(stdout, "phase-resolved narrative (sampled every %d cycles):\n", every)
		rep.Narrative(stdout)
	}

	for _, out := range []struct {
		name, path string
		write      func(io.Writer) error
	}{
		{"csv", *csvPath, func(w io.Writer) error { return sampler.WriteCSV(w, tgt.Samples) }},
		{"profile", *profilePath, func(w io.Writer) error {
			return melody.BuildProfile([]melody.SampledSeries{{
				Workload: spec.Name, Config: target.Name, Platform: p.CPU.Name,
				Samples: tgt.Samples,
			}}).Write(w)
		}},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			fmt.Fprintf(stderr, "spa: %s: %v\n", out.name, err)
			return 1
		}
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
