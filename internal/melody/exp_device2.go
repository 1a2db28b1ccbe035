package melody

import (
	"github.com/moatlab/melody/internal/apps/kvstore"
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/stats"
)

// fig7cRow is one config's Redis request-latency percentiles (ns).
type fig7cRow struct {
	name                string
	p50, p90, p99, p999 float64
}

// fig7cLatencies runs Redis YCSB-C on four configs recording per-op
// latency through the core model.
func fig7cLatencies(o Options) []fig7cRow {
	spr := platform.SPR2S()
	configs := []struct {
		name string
		dev  func() mem.Device
	}{
		{"Local", func() mem.Device { return spr.LocalDevice() }},
		{"NUMA", func() mem.Device { return spr.NUMADevice(o.seed()) }},
		{"CXL-B", func() mem.Device { return spr.CXLDevice(cxl.ProfileB(), o.seed()) }},
		{"CXL-C", func() mem.Device { return spr.CXLDevice(cxl.ProfileC(), o.seed()) }},
	}
	instr := o.Instructions
	if instr == 0 {
		instr = 1_500_000
	}
	var rows []fig7cRow
	var m core.Machine
	for _, c := range configs {
		y := kvstore.NewYCSB("redis-ycsb-C", kvstore.RedisConfig(), kvstore.YCSBMixes()["C"], o.seed())
		y.RecordOpLatency = true
		m.Reset(core.Config{CPU: spr.CPU, Device: c.dev(), MaxInstructions: instr})
		for _, obj := range y.PreloadObjects() {
			m.Preload(obj.Base, obj.Size)
		}
		y.Run(&m)
		ps := stats.Percentiles(y.OpLatenciesNs, 50, 90, 99, 99.9)
		rows = append(rows, fig7cRow{c.name, ps[0], ps[1], ps[2], ps[3]})
	}
	return rows
}
