package core

import (
	"reflect"
	"testing"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/vm"
)

// cellOutput is everything a cell reads off its machine.
type cellOutput struct {
	Counters, Warm counters.Snapshot
	Regions        []RegionStat
	Hooked         recordingSampler
}

// runCell drives m through a seeded cell the way the runner does:
// regions, preload, a warmup window, then the measured window, with
// cycle sampling on.
func runCell(m *Machine, cfg Config, seed uint64) cellOutput {
	rec := &recordingSampler{}
	cfg.Sampler, cfg.Cadence = rec, EveryCycles(3000)
	cfg.MaxInstructions = 10_000
	m.Reset(cfg)
	a := vm.New(1 << 30)
	hot := a.Alloc("hot", 4<<20)
	cold := a.Alloc("cold", 256<<20)
	m.SetRegions(a.Objects())
	m.Preload(hot.Base, hot.Size)
	r := sim.NewRand(seed)
	// Each 10k-instruction block starts and ends with a sequential
	// stream over 16 pages, so a cell ends and begins with the
	// prefetchers trained on the same pages.
	var next uint64
	step := func() {
		for !m.Done() {
			if i := m.Instructions() % 10_000; i < 1000 || i >= 9000 {
				m.Load(hot.Base+next%(64<<10), false)
				next += mem.LineSize
				continue
			}
			switch r.Uint64n(4) {
			case 0:
				m.Load(hot.Base+r.Uint64n(hot.Size), r.Uint64n(2) == 0)
			case 1:
				m.Load(cold.Base+r.Uint64n(cold.Size), true)
			case 2:
				m.Store(cold.Base + r.Uint64n(cold.Size))
			default:
				m.Compute(1 + r.Uint64n(8))
			}
			if r.Uint64n(500) == 0 {
				m.Serialize()
			}
		}
	}
	step()
	warm := m.Counters()
	m.SetMaxInstructions(40_000)
	step()
	return cellOutput{m.Counters(), warm, m.RegionStats(), *rec}
}

// TestReusedMachineMatchesNew requires a cell's output to be
// bit-identical on a new machine and on one reused after a different
// cell, a different device, or a different cache geometry.
func TestReusedMachineMatchesNew(t *testing.T) {
	cfg := Config{CPU: testCPU(), Device: &fixedDev{lat: 180}}
	want := runCell(&Machine{}, cfg, 1)

	emr := platform.EMR2S().CPU
	for name, prev := range map[string]Config{
		"other cell":     cfg,
		"other device":   {CPU: testCPU(), Device: &fixedDev{lat: 420}, PrefetchersOff: true},
		"other geometry": {CPU: emr, Device: &fixedDev{lat: 180}, L2PFMaxInflight: 4},
	} {
		m := &Machine{}
		first := runCell(m, prev, 2)
		firstCopy := cellOutput{first.Counters, first.Warm,
			append([]RegionStat(nil), first.Regions...), first.Hooked}
		cfg.Device.Reset()
		if got := runCell(m, cfg, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused machine's cell differs from a new machine's", name)
		}
		if !reflect.DeepEqual(first, firstCopy) {
			t.Errorf("%s: the next cell changed regions handed out earlier", name)
		}
	}
}

// BenchmarkMachineReset resets an EMR machine between cells.
func BenchmarkMachineReset(b *testing.B) {
	cfg := Config{CPU: platform.EMR2S().CPU, Device: &fixedDev{lat: 100}}
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(cfg)
	}
}
