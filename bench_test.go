// Package bench regenerates every table and figure of the paper as Go
// benchmarks: each BenchmarkTableN/BenchmarkFigN runs the corresponding
// experiment end-to-end on the simulated testbed and logs the report.
//
// Run a single figure:
//
//	go test -bench=Fig8a -benchtime=1x
//
// Run everything (as the EXPERIMENTS.md numbers were produced):
//
//	go test -bench=. -benchmem
//
// Compare sequential vs parallel cell execution (the engine's worker
// pool; expect >= 2x on >= 4 cores):
//
//	go test -bench=Sweep48 -benchtime=3x
//
// Sweep48JMax vs Sweep48JMaxMetrics bounds the telemetry overhead (the
// -metrics/-trace machinery; expect low single-digit percent).
//
// The options below subsample the 265-workload catalog for tractable
// runtimes; pass -full to sweep the entire catalog (minutes per figure).
package bench

import (
	"context"
	"flag"
	"runtime"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/hostprof"
)

var full = flag.Bool("full", false, "run figures over the full 265-workload catalog")

// benchOptions returns the experiment scaling used for benchmarks.
func benchOptions() melody.Options {
	o := melody.Options{
		MaxWorkloads: 16,
		Instructions: 400_000,
		Warmup:       100_000,
		DurationNs:   100_000,
		Seed:         1,
	}
	if *full {
		o.MaxWorkloads = 0
		o.Instructions = 1_200_000
		o.Warmup = 250_000
		o.DurationNs = 300_000
	}
	return o
}

// runExperiment executes one registered experiment per benchmark
// iteration and logs its report on the last iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	melody.RegisterWorkloads()
	var rep *melody.Report
	for i := 0; i < b.N; i++ {
		var ok bool
		rep, ok = melody.NewEngine(benchOptions()).RunByID(context.Background(), id)
		if !ok {
			b.Fatalf("experiment %q not registered", id)
		}
	}
	if rep == nil || len(rep.Lines) == 0 {
		b.Fatalf("experiment %q produced no output", id)
	}
	b.Log("\n" + rep.String())
}

// benchmarkSweep measures the wall-clock of a 48-workload Figure 8a
// sweep at a fixed worker count — the acceptance comparison for the
// parallel experiment engine (run Sweep48J1 vs Sweep48JMax). When
// observed is set, full telemetry (metrics registry + trace) is
// attached, so Sweep48JMax vs Sweep48JMaxMetrics bounds the
// observability overhead. A non-zero sampleEvery additionally turns on
// the cycle sampler in every cell, so Sweep48JMaxMetrics vs
// Sweep48JMaxSampling bounds the cost of the time-resolved streams.
func benchmarkSweep(b *testing.B, workers int, observed bool, sampleEvery uint64) {
	b.Helper()
	melody.RegisterWorkloads()
	o := benchOptions()
	o.MaxWorkloads = 48
	o.SampleEveryCycles = sampleEvery
	for i := 0; i < b.N; i++ {
		g := melody.NewEngine(o)
		g.Workers = workers
		if observed {
			g.Obs = melody.NewTelemetry()
			g.Obs.Trace = obs.NewTrace()
		}
		rep, ok := g.RunByID(context.Background(), "fig8a")
		if !ok || len(rep.Lines) == 0 {
			b.Fatal("fig8a sweep produced no output")
		}
		if observed && g.Obs.Registry.Counter("runner/cells_run").Value() == 0 {
			b.Fatal("telemetry attached but no cells recorded")
		}
		if sampleEvery > 0 && observed && g.Obs.Registry.Counter("runner/cells_sampled").Value() == 0 {
			b.Fatal("sampling enabled but no cells sampled")
		}
	}
}

func BenchmarkSweep48J1(b *testing.B)           { benchmarkSweep(b, 1, false, 0) }
func BenchmarkSweep48JMax(b *testing.B)         { benchmarkSweep(b, runtime.NumCPU(), false, 0) }
func BenchmarkSweep48JMaxMetrics(b *testing.B)  { benchmarkSweep(b, runtime.NumCPU(), true, 0) }
func BenchmarkSweep48JMaxSampling(b *testing.B) { benchmarkSweep(b, runtime.NumCPU(), true, 20_000) }

// BenchmarkSweep48JMaxHostprof runs the observed sweep with the
// continuous host profiler live at an aggressive 1s cadence (CPU
// windows plus heap/goroutine/mutex/block snapshots every round), so
// Sweep48JMaxMetrics vs Sweep48JMaxHostprof bounds the profiling
// overhead. The mutex/block rates are raised only inside capture
// windows and restored after, so the steady-state cost is the CPU
// sampling window itself — expect low single-digit percent even at
// this cadence, and nothing at all at the default 60s interval.
func BenchmarkSweep48JMaxHostprof(b *testing.B) {
	p := hostprof.New(hostprof.Config{
		Interval:    time.Second,
		CPUDuration: 250 * time.Millisecond,
		Registry:    obs.NewRegistry(),
		Watchdog:    hostprof.WatchdogConfig{Disabled: true},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()
	benchmarkSweep(b, runtime.NumCPU(), true, 0)
	cancel()
	<-done
	if p.Store().Len() == 0 {
		b.Fatal("profiler captured nothing during the sweep")
	}
}

func BenchmarkTable1(b *testing.B)    { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig3a(b *testing.B)     { runExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)     { runExperiment(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)     { runExperiment(b, "fig3c") }
func BenchmarkFig4(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { runExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)     { runExperiment(b, "fig8a") }
func BenchmarkFig8c(b *testing.B)     { runExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B)     { runExperiment(b, "fig8d") }
func BenchmarkFig8e(b *testing.B)     { runExperiment(b, "fig8e") }
func BenchmarkFig8f(b *testing.B)     { runExperiment(b, "fig8f") }
func BenchmarkFig9a(b *testing.B)     { runExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)     { runExperiment(b, "fig9b") }
func BenchmarkFig11(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig12a(b *testing.B)    { runExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B)    { runExperiment(b, "fig12b") }
func BenchmarkFig14(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkTuning(b *testing.B)    { runExperiment(b, "tuning") }
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }
func BenchmarkPredict(b *testing.B)   { runExperiment(b, "predict") }
func BenchmarkCPMU(b *testing.B)      { runExperiment(b, "cpmu") }
func BenchmarkTiering(b *testing.B)   { runExperiment(b, "tiering") }
