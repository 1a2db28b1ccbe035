package tablestore

import (
	"math"
	"slices"
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
	return Config{Rows: 1 << 12, RowSize: 128, OpCompute: 600, OpILP: 2}
}

func newMachine(lat float64) *core.Machine {
	return core.New(core.Config{CPU: platform.SKX2S().CPU, Device: &fixedDev{lat: lat}, MaxInstructions: 120_000})
}

func TestSelectFindsRows(t *testing.T) {
	tb := NewTable(smallConfig())
	m := newMachine(100)
	for k := uint64(1); k <= 50; k++ {
		if !tb.Select(m, k) {
			t.Fatalf("row %d missing", k)
		}
	}
	if tb.Select(m, 1<<40) {
		t.Fatal("absent row selected")
	}
}

func TestIndexWalkIsDependentLoads(t *testing.T) {
	tb := NewTable(smallConfig())
	m := newMachine(100)
	before := m.Counters()
	tb.Select(m, 2048)
	d := m.Counters().Delta(before)
	// Binary search over 4096 rows = ~12 probes, plus 2 row lines.
	if d[counters.DemandLoads] < 12 {
		t.Fatalf("Select issued only %v loads (binary search missing?)", d[counters.DemandLoads])
	}
}

func TestUpdateWritesRowAndLog(t *testing.T) {
	tb := NewTable(smallConfig())
	m := newMachine(100)
	before := m.Counters()
	if !tb.Update(m, 99) {
		t.Fatal("update of present row failed")
	}
	d := m.Counters().Delta(before)
	// 2 row lines + 2 redo-log lines.
	if d[counters.StoreOps] < 4 {
		t.Fatalf("Update issued only %v stores", d[counters.StoreOps])
	}
}

func TestScanRange(t *testing.T) {
	tb := NewTable(smallConfig())
	m := newMachine(100)
	before := m.Counters()
	tb.ScanRange(m, 1, 16)
	d := m.Counters().Delta(before)
	if d[counters.DemandLoads] < 16*2 {
		t.Fatalf("ScanRange issued only %v loads", d[counters.DemandLoads])
	}
}

func TestYCSBMixesRun(t *testing.T) {
	for name, mix := range Mixes() {
		y := NewYCSB("t-"+name, smallConfig(), mix, 1)
		m := newMachine(150)
		y.Run(m)
		if m.Instructions() < 120_000 {
			t.Fatalf("mix %s ran %d instructions", name, m.Instructions())
		}
	}
}

func TestTableMoreLatencySensitiveThanFlatCompute(t *testing.T) {
	// The index walk serializes on memory latency: runtime must grow
	// substantially with device latency.
	run := func(lat float64) float64 {
		y := NewYCSB("t", smallConfig(), Mixes()["C"], 1)
		m := newMachine(lat)
		y.Run(m)
		return m.Counters()[counters.Cycles]
	}
	if fast, slow := run(100), run(400); slow < fast*1.3 {
		t.Fatalf("index-walking store barely slowed: %v vs %v", fast, slow)
	}
}

func TestSpecsShape(t *testing.T) {
	specs := Specs()
	if len(specs) != 6 {
		t.Fatalf("got %d voltdb specs, want 6", len(specs))
	}
	for _, s := range specs {
		if s.New == nil || s.Suite != "VoltDB" {
			t.Fatalf("bad spec %+v", s)
		}
	}
}

// logDev is a fixed-latency device that records the line addresses it
// serves.
type logDev struct {
	fixedDev
	addrs []uint64
}

func (d *logDev) Access(now float64, addr uint64, kind mem.Kind) float64 {
	d.addrs = append(d.addrs, addr)
	return d.fixedDev.Access(now, addr, kind)
}

// searchKeys is find's reference: the same binary search over an
// explicit sorted key array.
func searchKeys(t *Table, m *core.Machine, keys []uint64, key uint64) (uint64, bool) {
	lo, hi := uint64(0), uint64(len(keys))
	for lo < hi {
		mid := (lo + hi) / 2
		m.Load(t.indexAddr(mid), true)
		m.Compute(4)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < uint64(len(keys)) && keys[lo] == key {
		return lo, true
	}
	return lo, false
}

// TestFindMatchesExplicitKeys: find returns what a binary search over
// the keys 1..Rows returns, and the machine sees the same loads: the
// same device accesses and bit-identical counters.
func TestFindMatchesExplicitKeys(t *testing.T) {
	cfg := smallConfig()
	tb := NewTable(cfg)
	keys := make([]uint64, cfg.Rows)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	machine := func() (*core.Machine, *logDev) {
		d := &logDev{fixedDev: fixedDev{lat: 100}}
		return core.New(core.Config{CPU: platform.SKX2S().CPU, Device: d, MaxInstructions: 120_000}), d
	}
	for _, key := range []uint64{0, 1, cfg.Rows / 2, cfg.Rows, cfg.Rows + 1} {
		m, d := machine()
		pos, ok := tb.find(m, key)
		mRef, dRef := machine()
		wantPos, wantOK := searchKeys(tb, mRef, keys, key)
		if len(dRef.addrs) == 0 {
			t.Fatalf("key %d: the search reached no device", key)
		}
		if pos != wantPos || ok != wantOK {
			t.Errorf("key %d: find = (%d, %v), search over keys = (%d, %v)", key, pos, ok, wantPos, wantOK)
		}
		if !slices.Equal(d.addrs, dRef.addrs) {
			t.Errorf("key %d: find accessed %x, search over keys %x", key, d.addrs, dRef.addrs)
		}
		if got, want := m.Counters(), mRef.Counters(); !bitsEqual(got, want) {
			t.Errorf("key %d: counters differ from the search over keys", key)
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
