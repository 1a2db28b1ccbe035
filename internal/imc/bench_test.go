package imc_test

import (
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/sim"
)

// BenchmarkIMCAccess times one demand read to EMR's socket-local DRAM
// issued 5 ns after the previous one: the device access every Local
// cell pays, beside BenchmarkCXLAccess for the expander.
func BenchmarkIMCAccess(b *testing.B) {
	d := platform.EMR2S().LocalDevice()
	r := sim.NewRand(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(float64(i+1)*5, r.Uint64n(1<<30)&^(mem.LineSize-1), mem.DemandRead)
	}
}
