package core

import (
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/traffic"
)

// BenchmarkContendedAccess times one foreground access on EMR local DRAM
// shared with 28 sibling threads set up like a bandwidth-class
// workload's (bwSiblings(28, 0.85): MLP 12, sequential, 64 MB each, 85%
// reads). The foreground accesses every 10 simulated ns, so each access
// first steps every sibling due in that window.
func BenchmarkContendedAccess(b *testing.B) {
	dev := platform.EMR2S().LocalDevice()
	const ws = 64 << 20
	threads := make([]traffic.Thread, 28)
	for i := range threads {
		g := traffic.NewLoadGenerator(dev, ws, 0.85, uint64(i)*257+11)
		g.Base = 1<<40 + uint64(i)*(ws+1<<21)
		g.MLP = 12
		g.Sequential = true
		threads[i] = g
	}
	c := NewContendedDevice(dev, threads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(float64(i+1)*10, uint64(i)*4160%(1<<30), mem.DemandRead)
	}
}
