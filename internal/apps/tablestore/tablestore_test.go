package tablestore

import (
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

// TestTablesShareKeys builds YCSB tables of one size from several
// goroutines and requires them to share one key array holding 1..Rows,
// which running YCSB-F on one of them leaves unchanged.
func TestTablesShareKeys(t *testing.T) {
	ycsbs := make([]*YCSB, 4)
	var wg sync.WaitGroup
	for i := range ycsbs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ycsbs[i] = NewYCSB("t", smallConfig(), Mixes()["F"], uint64(i))
		}(i)
	}
	wg.Wait()
	ycsbs[0].Run(newMachine(100))
	keys := ycsbs[0].Table().keys
	for i, y := range ycsbs {
		if &y.Table().keys[0] != &keys[0] {
			t.Fatalf("table %d has its own key array", i)
		}
	}
	for i, k := range keys {
		if k != uint64(i)+1 {
			t.Fatalf("keys[%d] = %d, want %d", i, k, i+1)
		}
	}
}
