package core

import (
	"testing"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/vm"
)

// synthArena allocates what a Synthetic cell preloads, in its order: a
// hot set, then four stream buffers.
func synthArena() (objs []vm.Object, rand vm.Object) {
	a := vm.New(1 << 30)
	objs = append(objs, a.Alloc("hot", 8<<20))
	for i := 0; i < 4; i++ {
		objs = append(objs, a.Alloc("stream", 16<<20))
	}
	return objs, a.Alloc("rand", 256<<20)
}

// TestPreloadL2Survivors pins which lines Preload leaves in the L2.
// Each call pushes the first min(n, half the L2) lines of its range
// through the L2, so a hot set plus four streams push 2.5 times the
// L2's capacity through it, and each set keeps only the last ways
// lines that reached it: here the leading edges of the last two
// streams, and none of the hot set.
func TestPreloadL2Survivors(t *testing.T) {
	m := New(Config{CPU: platform.EMR2S().CPU, Device: &fixedDev{lat: 100}})
	objs, _ := synthArena()
	sets, ways := uint64(m.l2.Sets()), m.l2.Ways()
	half := sets * uint64(ways) / 2
	var pushed []uint64 // every address the L2 preloads took, in order
	for _, o := range objs {
		m.Preload(o.Base, o.Size)
		for i := uint64(0); i < min(o.Size/mem.LineSize, half); i++ {
			pushed = append(pushed, o.Base+i*mem.LineSize)
		}
	}
	if got, want := uint64(len(pushed)), 5*sets*uint64(ways)/2; got != want {
		t.Fatalf("%d lines pushed through the L2, want %d", got, want)
	}
	survivors := map[uint64]bool{}
	perSet := make([]int, sets)
	for i := len(pushed) - 1; i >= 0; i-- {
		a := pushed[i]
		if s := a / mem.LineSize % sets; perSet[s] < ways {
			perSet[s]++
			survivors[a] = true
		}
	}
	for _, a := range pushed {
		if _, hit := m.l2.Peek(a); hit != survivors[a] {
			t.Fatalf("L2 holds %#x: %v, want %v", a, hit, survivors[a])
		}
	}
	for _, o := range objs[:3] {
		if _, hit := m.l2.Peek(o.Base); hit {
			t.Fatalf("L2 kept the leading line of %s at %#x", o.Name, o.Base)
		}
	}
	for _, o := range objs[3:] {
		if _, hit := m.l2.Peek(o.Base); !hit {
			t.Fatalf("L2 lost the leading line of %s at %#x", o.Name, o.Base)
		}
	}
}

// loadStoreMix returns a pass over an EMR machine with prefetchers on,
// over a fixed-latency device, and its operation count. Each pass
// resets the machine and preloads it as a Synthetic cell is (hot set,
// then four streams), then replays 200k seeded operations: six in ten
// go to Zipf-ranked lines scattered over a 256 MB working set, one in
// ten to the hot set, the rest walk the four streams in turn; a fifth
// are stores and a third of the loads are dependent.
func loadStoreMix() (m *Machine, pass func(), nops int) {
	cfg := Config{CPU: platform.EMR2S().CPU, Device: &fixedDev{lat: 250}}
	objs, rand := synthArena()
	hot, streams := objs[0], objs[1:]
	type op struct {
		addr       uint64
		store, dep bool
	}
	r := sim.NewRand(1)
	lines := rand.Size / mem.LineSize
	z := sim.NewZipf(r.Fork(), lines, 0.99)
	ops := make([]op, 200_000)
	var cursor uint64
	for i := range ops {
		var a uint64
		switch k := r.Uint64n(10); {
		case k < 6:
			a = rand.Base + z.Next()*0x9e3779b97f4a7c15%lines*mem.LineSize
		case k < 7:
			a = hot.Base + r.Uint64n(hot.Size/mem.LineSize)*mem.LineSize
		default:
			s := streams[cursor%4]
			a = s.Base + cursor/4%(s.Size/mem.LineSize)*mem.LineSize
			cursor++
		}
		ops[i] = op{a, r.Uint64n(5) == 0, r.Uint64n(3) == 0}
	}
	m = &Machine{}
	pass = func() {
		cfg.Device.Reset()
		m.Reset(cfg)
		for _, o := range objs {
			m.Preload(o.Base, o.Size)
		}
		for _, o := range ops {
			if o.store {
				m.Store(o.addr)
			} else {
				m.Load(o.addr, o.dep)
			}
		}
	}
	return m, pass, len(ops)
}

// TestMachineLoadStoreAllocFree requires a warm pass of the load/store
// mix to allocate nothing, and pins its prefetch counters. The pinned
// values include the L2 proposals that overwrite L1 proposals not yet
// issued (the copy in trainL2); fixing that defect re-baselines them.
func TestMachineLoadStoreAllocFree(t *testing.T) {
	m, pass, _ := loadStoreMix()
	pass() // grow the cache set pools, as a reused machine has
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("warm load/store pass allocates %.0f times, want 0", allocs)
	}
	c := m.Counters()
	for _, w := range []struct {
		name string
		id   counters.ID
		want float64
	}{
		{"L1PFIssued", counters.L1PFIssued, 23926},
		{"L2PFIssued", counters.L2PFIssued, 53091},
		{"L2PFDropped", counters.L2PFDropped, 0},
		{"L1PFL3Miss", counters.L1PFL3Miss, 0},
		{"DelayedHits", counters.DelayedHits, 18197},
	} {
		if got := c[w.id]; got != w.want {
			t.Errorf("%s = %v, want %v", w.name, got, w.want)
		}
	}
}

// BenchmarkMachineLoadStore times loadStoreMix's pass per access. One
// untimed pass grows the cache set pools first, as a reused machine
// has.
func BenchmarkMachineLoadStore(b *testing.B) {
	_, pass, nops := loadStoreMix()
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nops), "ns/access")
}
