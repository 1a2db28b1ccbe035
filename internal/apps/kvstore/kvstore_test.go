package kvstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/mem"
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

func smallConfig() Config {
	return Config{Keys: 1 << 12, ValueSize: 256, OpCompute: 400, OpILP: 2}
}

func newMachine(lat float64) *core.Machine {
	return core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: lat}, MaxInstructions: 100_000})
}

func TestGetFindsPopulatedKeys(t *testing.T) {
	s := NewStore(smallConfig())
	m := newMachine(100)
	for k := uint64(1); k <= 100; k++ {
		if !s.Get(m, k) {
			t.Fatalf("key %d missing after load phase", k)
		}
	}
	if s.Get(m, 1<<40) {
		t.Fatal("absent key found")
	}
}

func TestSetThenGet(t *testing.T) {
	s := NewStore(smallConfig())
	m := newMachine(100)
	s.Set(m, 7)
	if !s.Get(m, 7) {
		t.Fatal("key lost after Set")
	}
}

func TestOperationsTouchMemory(t *testing.T) {
	s := NewStore(smallConfig())
	m := newMachine(100)
	before := m.Counters()
	s.Get(m, 42)
	d := m.Counters().Delta(before)
	// At least one probe plus value lines (256B = 4 lines).
	if d[counters.DemandLoads] < 5 {
		t.Fatalf("Get issued only %v loads", d[counters.DemandLoads])
	}
	before = m.Counters()
	s.Set(m, 42)
	d = m.Counters().Delta(before)
	if d[counters.StoreOps] < 4 {
		t.Fatalf("Set issued only %v stores", d[counters.StoreOps])
	}
}

func TestScanReadsSequentially(t *testing.T) {
	s := NewStore(smallConfig())
	m := newMachine(100)
	before := m.Counters()
	s.Scan(m, 10, 8)
	d := m.Counters().Delta(before)
	if d[counters.DemandLoads] < 8*4 {
		t.Fatalf("Scan of 8x256B issued only %v loads", d[counters.DemandLoads])
	}
}

func TestYCSBRunsAllMixes(t *testing.T) {
	for name, mix := range YCSBMixes() {
		y := NewYCSB("t-"+name, smallConfig(), mix, 1)
		m := newMachine(150)
		y.Run(m)
		if m.Instructions() < 100_000 {
			t.Fatalf("mix %s ran %d instructions", name, m.Instructions())
		}
	}
}

func TestYCSBOpLatencyRecording(t *testing.T) {
	y := NewYCSB("t", smallConfig(), YCSBMixes()["C"], 1)
	y.RecordOpLatency = true
	m := newMachine(200)
	y.Run(m)
	if len(y.OpLatenciesNs) < 10 {
		t.Fatalf("recorded %d op latencies", len(y.OpLatenciesNs))
	}
	for _, l := range y.OpLatenciesNs {
		if l <= 0 {
			t.Fatal("non-positive op latency")
		}
	}
}

func TestYCSBLatencySensitivity(t *testing.T) {
	run := func(lat float64) float64 {
		y := NewYCSB("t", smallConfig(), YCSBMixes()["C"], 1)
		m := newMachine(lat)
		y.Run(m)
		return m.Counters()[counters.Cycles]
	}
	if fast, slow := run(100), run(400); slow <= fast*1.05 {
		t.Fatalf("4x memory latency barely slowed YCSB-C: %v vs %v", fast, slow)
	}
}

func TestSpecsShape(t *testing.T) {
	specs := Specs()
	if len(specs) != 8 {
		t.Fatalf("got %d kvstore specs, want 8 (6 redis + 2 memcached)", len(specs))
	}
	for _, s := range specs {
		if s.New == nil || s.Suite != "Redis" {
			t.Fatalf("bad spec %+v", s)
		}
	}
}

// TestStoreClonesAreIndependent runs a write-heavy YCSB mix on one
// store and requires the shared image, and every later store, to stay
// as population left them: each run starts from the same data.
func TestStoreClonesAreIndependent(t *testing.T) {
	cfg := smallConfig()
	cfg.Keys++ // a Config no other test has populated
	ref := populate(cfg)
	mix := Mix{Read: 0.2, Update: 0.3, Insert: 0.3, RMW: 0.2}

	run := func() (*YCSB, float64) {
		y := NewYCSB("clone", cfg, mix, 3)
		m := newMachine(150)
		y.Run(m)
		return y, m.Counters()[counters.Cycles]
	}
	first, cycles := run()
	if first.maxKey == cfg.Keys || first.store.logHead == ref.logHead {
		t.Fatal("the mix inserted or updated nothing")
	}
	img := image(cfg)
	if img.logHead != ref.logHead || !slices.Equal(slots(img), slots(ref)) {
		t.Fatal("running YCSB on a store changed the shared image")
	}
	if next := NewStore(cfg); next.logHead != ref.logHead || !slices.Equal(slots(next), slots(ref)) {
		t.Fatal("a store built after a run does not start from the populated state")
	}
	if _, again := run(); again != cycles {
		t.Fatalf("a second run on a new store took %v cycles, the first %v", again, cycles)
	}
}

// TestImageConcurrent: concurrent first calls populate a Config once
// and all return that image.
func TestImageConcurrent(t *testing.T) {
	cfg := smallConfig()
	cfg.Keys += 2 // a Config no other test has populated
	got := make([]*Store, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = image(cfg)
		}()
	}
	wg.Wait()
	for i, img := range got {
		if img == nil || img != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, img, got[0])
		}
	}
}

// slots flattens a store's hash table.
func slots(s *Store) []slot { return slices.Concat(s.pages...) }

// TestCopyOnWriteMatchesFullCopy runs YCSB-A, -D and -F on two stores
// that share the image's pages and on a store that owns a full copy of
// them, and requires bit-identical machine counters from all three and
// an unchanged image afterwards.
func TestCopyOnWriteMatchesFullCopy(t *testing.T) {
	cfg := smallConfig()
	cfg.Keys = 3 << 12 // several pages; a Config no other test has populated
	ref := populate(cfg)
	for _, wl := range []string{"A", "D", "F"} {
		run := func(full bool) counters.Snapshot {
			y := NewYCSB("cow-"+wl, cfg, YCSBMixes()[wl], 5)
			if full {
				for p := range y.store.pages {
					y.store.pages[p] = slices.Clone(y.store.pages[p])
					y.store.owned[p] = true
				}
			}
			m := newMachine(150)
			y.Run(m)
			return m.Counters()
		}
		want := run(true)
		for clone := 0; clone < 2; clone++ {
			if got := run(false); !bitsEqual(got, want) {
				t.Fatalf("YCSB-%s on copy-on-write store %d: counters differ from a full copy", wl, clone)
			}
		}
		img := image(cfg)
		if img.logHead != ref.logHead || !slices.Equal(slots(img), slots(ref)) {
			t.Fatalf("YCSB-%s changed the shared image", wl)
		}
	}
}

func bitsEqual(a, b counters.Snapshot) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkKVStoreNew builds a Redis-sized store from its cached image
// and applies 1k Sets, which copy the hash-table pages they write.
func BenchmarkKVStoreNew(b *testing.B) {
	cfg := RedisConfig()
	image(cfg)
	m := newMachine(100)
	m.SetMaxInstructions(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(cfg)
		for k := uint64(1); k <= 1000; k++ {
			s.Set(m, k*1021)
		}
	}
}

// imageDigest is the sha256 of an image's slots, each as its key and
// value address in little-endian uint64s, then its log head.
func imageDigest(s *Store) string {
	h := sha256.New()
	var b [16]byte
	for _, sl := range slots(s) {
		binary.LittleEndian.PutUint64(b[:8], sl.key)
		binary.LittleEndian.PutUint64(b[8:], sl.valAddr)
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:8], s.logHead)
	h.Write(b[:8])
	return hex.EncodeToString(h.Sum(nil))
}

// TestImageByteIdentity pins the slot layout and log head that
// population leaves for the Redis, memcached and unit-test configs.
// The digests come from the page-by-page insert that the flat-table
// populate replaced. No Config's population wraps a probe past the
// table's last slot: at every table size up to 1<<23 slots, keys
// 1..Keys leave slot 0 empty and no displaced key reaches the last
// slot.
func TestImageByteIdentity(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"redis", RedisConfig(), "c77b865d9a5491b053ef328df4c2e869a5f7a235021bcadf59d63afbbdefeef0"},
		{"memcached", MemcachedConfig(), "fab47b16596a6f674ea798ba61cd48123450ce87521e03eb307b87ba03ef4156"},
		{"small", smallConfig(), "1edbfa01affa18ccf1b5143c19b07e7e752286c03fabc230e1d407734a732707"},
	} {
		if got := imageDigest(populate(c.cfg)); got != c.want {
			t.Errorf("%s: image digest %s, want %s", c.name, got, c.want)
		}
	}
}

var imageSink *Store

// BenchmarkKVPopulate populates the Redis and memcached images from
// scratch, bypassing the image cache: the cold set-up cost of a
// process's first KV-store cell.
func BenchmarkKVPopulate(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"redis", RedisConfig()}, {"memcached", MemcachedConfig()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				imageSink = populate(c.cfg)
			}
		})
	}
}
