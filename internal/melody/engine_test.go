package melody

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

// detGrid is the 6-workload x 3-config grid the determinism tests sweep.
func detGrid(t *testing.T) ([]workload.Spec, []MemConfig) {
	t.Helper()
	RegisterWorkloads()
	emr := platform.EMR2S()
	names := []string{
		"605.mcf_s", "625.x264_s", "520.omnetpp_r",
		"micro-chase-256m", "redis-ycsb-C", "603.bwaves_s",
	}
	var specs []workload.Spec
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("workload %s missing", n)
		}
		specs = append(specs, s)
	}
	configs := []MemConfig{Local(emr), NUMA(emr), CXL(emr, cxl.ProfileA())}
	return specs, configs
}

// TestParallelDeterminism asserts the engine's core guarantee: a cell's
// result is a pure function of its identity, so an 8-worker schedule is
// bit-identical to the sequential one.
func TestParallelDeterminism(t *testing.T) {
	specs, configs := detGrid(t)
	emr := platform.EMR2S()
	cells := Cells(specs, configs...)

	measure := func(workers int) []Result {
		r := fastRunner(emr)
		r.Workers = workers
		out, err := r.RunAll(context.Background(), cells)
		if err != nil {
			t.Fatalf("RunAll(workers=%d): %v", workers, err)
		}
		return out
	}
	seq := measure(1)
	par := measure(8)
	if len(seq) != len(cells) || len(par) != len(cells) {
		t.Fatalf("result count: seq=%d par=%d want %d", len(seq), len(par), len(cells))
	}
	for i := range cells {
		if seq[i].Workload != par[i].Workload || seq[i].Config != par[i].Config {
			t.Fatalf("cell %d identity mismatch: %s/%s vs %s/%s", i,
				seq[i].Workload, seq[i].Config, par[i].Workload, par[i].Config)
		}
		if seq[i].Delta != par[i].Delta {
			t.Fatalf("cell %d (%s on %s): parallel Delta differs from sequential",
				i, cells[i].Spec.Name, cells[i].Config.Name)
		}
	}
}

// TestSchedulingOrderIndependence asserts that the order cells are
// submitted in does not leak into results (the seed-derivation property:
// no shared RNG advances between cells).
func TestSchedulingOrderIndependence(t *testing.T) {
	specs, configs := detGrid(t)
	emr := platform.EMR2S()
	cells := Cells(specs, configs...)
	reversed := make([]RunRequest, len(cells))
	for i, c := range cells {
		reversed[len(cells)-1-i] = c
	}

	a := fastRunner(emr)
	fwd, err := a.RunAll(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	b := fastRunner(emr)
	rev, err := b.RunAll(context.Background(), reversed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if fwd[i].Delta != rev[len(cells)-1-i].Delta {
			t.Fatalf("cell %s on %s depends on submission order",
				cells[i].Spec.Name, cells[i].Config.Name)
		}
	}
}

// TestReusedMachineKeepsResults runs two cells on one worker, so the
// second reuses the first's machine, and requires the first cell's
// Regions and Samples — which experiments read long after — to stay
// as they were.
func TestReusedMachineKeepsResults(t *testing.T) {
	RegisterWorkloads()
	emr := platform.EMR2S()
	r := fastRunner(emr)
	r.Instructions, r.Warmup = 100_000, 25_000
	r.SampleIntervalNs = 10_000
	r.Workers = 1
	run := func(name string) Result {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		res, err := r.RunAll(context.Background(), []RunRequest{{Spec: spec, Config: Local(emr)}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	first := run("605.mcf_s")
	if len(first.Regions) == 0 || len(first.Samples) == 0 {
		t.Fatalf("cell has %d regions and %d samples; the test needs both", len(first.Regions), len(first.Samples))
	}
	regions := append([]core.RegionStat(nil), first.Regions...)
	samples := append([]core.Sample(nil), first.Samples...)
	run("520.omnetpp_r")
	if !reflect.DeepEqual(first.Regions, regions) || !reflect.DeepEqual(first.Samples, samples) {
		t.Fatal("a later cell on the reused machine changed an earlier result's Regions or Samples")
	}
}

// TestMachinePoolSharedAcrossRunners runs a cell on one Engine, then
// cells of other platforms, with prefetchers off and another seed, on
// three Runners of other Engines drawing from the process-wide machine
// pool at once (two of them on a platform that shares the first one's
// CPU), then the first cell again on a new Engine. The machine it
// reuses must give the first run's result, and no CPU may keep more
// idle machines than a Runner has workers. Run with -race.
func TestMachinePoolSharedAcrossRunners(t *testing.T) {
	RegisterWorkloads()
	ctx := context.Background()
	// Pool keys no other test uses, so the idle counts are this test's.
	emr := platform.EMR2S()
	emr.CPU.Name = "EMR2S-pool-test"
	sameCPU := platform.SPR2S()
	sameCPU.CPU = emr.CPU
	skx := platform.SKX2S()
	skx.CPU.Name = "SKX2S-pool-test"
	specs := testSubset(t, 8)[:3]
	const workers = 2
	runner := func(g *Engine, p platform.Platform) *Runner {
		r := g.runner(p)
		r.SampleIntervalNs = 10_000
		return r
	}
	engine := func(seed uint64) *Engine {
		g := NewEngine(Options{Instructions: 100_000, Warmup: 25_000, SampleEveryCycles: 20_000, Seed: seed})
		g.Workers = workers
		return g
	}
	idle := func(cpu platform.CPU) int {
		machines.mu.Lock()
		defer machines.mu.Unlock()
		return len(machines.free[cpu])
	}
	x := []RunRequest{{Spec: specs[0], Config: CXL(emr, cxl.ProfileA())}}
	runX := func() Result {
		res := must(runner(engine(1), emr).RunAll(ctx, x))
		if n := idle(emr.CPU); n < 1 || n > workers {
			t.Fatalf("%d idle machines for %s after a cell, want 1..%d", n, emr.CPU.Name, workers)
		}
		return res[0]
	}
	first := runX()
	if len(first.Samples) == 0 || len(first.Sampled) == 0 || len(first.Regions) == 0 {
		t.Fatalf("cell has %d samples, %d sampled and %d regions; the test needs all three",
			len(first.Samples), len(first.Sampled), len(first.Regions))
	}

	var wg sync.WaitGroup
	for _, p := range []platform.Platform{sameCPU, sameCPU, skx} {
		r := runner(engine(2), p)
		r.PrefetchersOff = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.RunAll(ctx, Cells(specs, Local(p), CXL(p, cxl.ProfileB()))); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, cpu := range []platform.CPU{emr.CPU, skx.CPU} {
		if n := idle(cpu); n > workers {
			t.Errorf("%d idle machines for %s, want at most %d", n, cpu.Name, workers)
		}
	}

	again := runX()
	if !reflect.DeepEqual(first.Delta, again.Delta) || !reflect.DeepEqual(first.Samples, again.Samples) ||
		!reflect.DeepEqual(first.Sampled, again.Sampled) || !reflect.DeepEqual(first.Regions, again.Regions) {
		t.Fatal("a cell on a machine reused across Engines differs from its first run")
	}
}

// TestCacheSingleflight asserts a cell is computed exactly once even
// under heavy concurrent demand: 16 goroutines requesting the same cell
// must trigger a single MemConfig.Build. Run with -race.
func TestCacheSingleflight(t *testing.T) {
	RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("625.x264_s")

	var builds atomic.Int64
	counted := MemConfig{Name: "Local", Build: func(seed uint64) mem.Device {
		builds.Add(1)
		return emr.LocalDevice()
	}}

	r := fastRunner(emr)
	r.Instructions = 200_000
	r.Warmup = 50_000
	var wg sync.WaitGroup
	results := make([]Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = must(r.RunCtx(context.Background(), RunRequest{Spec: spec, Config: counted}))
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("cell built %d times, want exactly 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Delta != results[0].Delta {
			t.Fatal("concurrent requesters observed different results")
		}
	}
}

// TestRunAllDuplicateCells asserts bulk submission deduplicates: a batch
// repeating one cell computes it once and hands every slot the result.
func TestRunAllDuplicateCells(t *testing.T) {
	RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("508.namd_r")

	var builds atomic.Int64
	counted := MemConfig{Name: "Local", Build: func(seed uint64) mem.Device {
		builds.Add(1)
		return emr.LocalDevice()
	}}
	r := fastRunner(emr)
	r.Workers = 8
	reqs := make([]RunRequest, 12)
	for i := range reqs {
		reqs[i] = RunRequest{Spec: spec, Config: counted}
	}
	out, err := r.RunAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("duplicate cells built %d times, want 1", n)
	}
	for i := range out {
		if out[i].Delta != out[0].Delta {
			t.Fatal("duplicate cells returned different results")
		}
	}
}

// TestRunCtxCancellation asserts a cancelled context refuses new work.
func TestRunCtxCancellation(t *testing.T) {
	RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("625.x264_s")
	r := fastRunner(emr)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, RunRequest{Spec: spec, Config: Local(emr)}); err == nil {
		t.Fatal("RunCtx on cancelled context succeeded")
	}
	if _, err := r.RunAll(ctx, Cells([]workload.Spec{spec}, Local(emr), NUMA(emr))); err == nil {
		t.Fatal("RunAll on cancelled context succeeded")
	}
}

// TestEngineSharesRunners asserts experiments on one engine share a
// per-platform runner (and with it the baseline cache), while
// IsolatedRunner always returns a private one.
func TestEngineSharesRunners(t *testing.T) {
	g := NewEngine(Options{Seed: 1})
	ecA := g.context(context.Background(), "a")
	ecB := g.context(context.Background(), "b")
	emr := platform.EMR2S()
	if ecA.Runner(emr) != ecB.Runner(emr) {
		t.Fatal("experiments on one engine got different shared runners")
	}
	if ecA.Runner(emr) == ecA.IsolatedRunner(emr) {
		t.Fatal("IsolatedRunner returned the shared runner")
	}
	if ecA.Runner(platform.SKX2S()) == ecA.Runner(emr) {
		t.Fatal("distinct platforms share a runner")
	}
}

// TestEngineProgress asserts Declare reports completion counts up to the
// declared total.
func TestEngineProgress(t *testing.T) {
	specs, configs := detGrid(t)
	g := NewEngine(Options{Instructions: 200_000, Warmup: 50_000, Seed: 1})
	g.Workers = 4
	var calls atomic.Int64
	var maxDone atomic.Int64
	g.Progress = func(id string, done, total int) {
		calls.Add(1)
		if int64(done) > maxDone.Load() {
			maxDone.Store(int64(done))
		}
		if total != len(specs)*len(configs) {
			t.Errorf("total = %d, want %d", total, len(specs)*len(configs))
		}
	}
	ec := g.context(context.Background(), "test")
	if err := ec.Declare(ec.Runner(platform.EMR2S()), Cells(specs, configs...)); err != nil {
		t.Fatal(err)
	}
	want := int64(len(specs) * len(configs))
	if calls.Load() != want || maxDone.Load() != want {
		t.Fatalf("progress: %d calls, max done %d, want %d", calls.Load(), maxDone.Load(), want)
	}
}

// TestDeriveSeed pins the seed-derivation contract: stable, config-
// sensitive for device state, config-blind for the instruction stream.
func TestDeriveSeed(t *testing.T) {
	if deriveSeed("a", "x", 1) != deriveSeed("a", "x", 1) {
		t.Fatal("deriveSeed not deterministic")
	}
	if deriveSeed("a", "x", 1) == deriveSeed("a", "y", 1) {
		t.Fatal("deriveSeed ignores config")
	}
	if deriveSeed("a", "x", 1) == deriveSeed("b", "x", 1) {
		t.Fatal("deriveSeed ignores workload")
	}
	if deriveSeed("a", "x", 1) == deriveSeed("a", "x", 2) {
		t.Fatal("deriveSeed ignores base seed")
	}
}
