// Package platform encodes the paper's testbed (Table 1): the five Intel
// server platforms, their local and cross-socket memory systems, and the
// attachment points for the four CXL devices. It is the single source of
// truth for calibration targets, and provides builders that compose the
// dram/imc/link/cxl/topology packages into named memory setups.
package platform

import (
	"fmt"

	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/dram"
	"github.com/moatlab/melody/internal/imc"
	"github.com/moatlab/melody/internal/link"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/topology"
)

// CPU describes the core/cache resources the core model needs.
type CPU struct {
	Name    string
	Cores   int
	FreqGHz float64

	L1DBytes, L2Bytes, L3Bytes uint64
	L1Lat, L2Lat, L3Lat        int // load-to-use latencies, cycles

	LFBEntries  int // line-fill buffers (L1 miss MSHRs) -> memory MLP
	SBEntries   int // store buffer entries
	ROB         int
	RetireWidth int

	// MissOverheadNs is the CPU-side portion of an LLC-miss round trip
	// (tag lookups down the hierarchy, uncore/mesh traversal, fill).
	// Published idle latencies include it; device models do not.
	MissOverheadNs float64
}

// Platform is one server from Table 1.
type Platform struct {
	CPU CPU

	// Local DRAM behind the integrated memory controller.
	LocalPipelineNs float64
	LocalDRAM       dram.Config

	// Cross-socket interconnect for the NUMA setups.
	UPI         link.Config
	NUMAExtraNs float64

	// Reference values straight from Table 1 (ns, GB/s), used by
	// calibration tests and reports.
	RefLocalLat, RefLocalBW   float64
	RefRemoteLat, RefRemoteBW float64
}

// Table 1 rows. Channel bandwidths are effective (measured), i.e.
// Table 1 BW divided by channel count.

// SPR2S returns the 2-socket Sapphire Rapids platform.
func SPR2S() Platform {
	return Platform{
		CPU: CPU{
			Name: "SPR2S", Cores: 32, FreqGHz: 2.1,
			L1DBytes: 48 << 10, L2Bytes: 2 << 20, L3Bytes: 60 << 20,
			L1Lat: 5, L2Lat: 15, L3Lat: 66,
			LFBEntries: 16, SBEntries: 112, ROB: 512, RetireWidth: 4,
			MissOverheadNs: 50,
		},
		LocalPipelineNs: 22,
		LocalDRAM: dram.Config{
			Channels: 8, BanksPerChannel: 64, ChannelBW: 27.8,
			RowBytes: 8192, Timing: dram.DDR5(),
		},
		UPI:         link.Config{PropagationNs: 38, ReqBW: 121, RspBW: 121},
		NUMAExtraNs: 0,
		RefLocalLat: 114, RefLocalBW: 218,
		RefRemoteLat: 191, RefRemoteBW: 97,
	}
}

// EMR2S returns the 2-socket Emerald Rapids platform.
func EMR2S() Platform {
	p := SPR2S()
	p.CPU.Name = "EMR2S"
	p.CPU.L3Bytes = 160 << 20
	p.LocalPipelineNs = 19
	p.LocalDRAM.ChannelBW = 31.5
	p.UPI = link.Config{PropagationNs: 40, ReqBW: 150, RspBW: 150}
	p.RefLocalLat, p.RefLocalBW = 111, 246
	p.RefRemoteLat, p.RefRemoteBW = 193, 120
	return p
}

// EMR2SPrime returns the larger EMR platform hosting CXL-D.
func EMR2SPrime() Platform {
	p := EMR2S()
	p.CPU.Name = "EMR2S'"
	p.CPU.Cores = 52
	p.CPU.FreqGHz = 2.3
	p.CPU.L3Bytes = 260 << 20
	p.LocalPipelineNs = 25
	p.LocalDRAM.ChannelBW = 30.3
	p.UPI = link.Config{PropagationNs: 47, ReqBW: 149, RspBW: 149}
	p.RefLocalLat, p.RefLocalBW = 117, 236
	p.RefRemoteLat, p.RefRemoteBW = 212, 119
	return p
}

// SKX2S returns the 2-socket Skylake platform (the 140/190 ns NUMA
// latency levels).
func SKX2S() Platform {
	return Platform{
		CPU: CPU{
			Name: "SKX2S", Cores: 10, FreqGHz: 2.2,
			L1DBytes: 32 << 10, L2Bytes: 1 << 20, L3Bytes: 13_800 << 10,
			L1Lat: 4, L2Lat: 14, L3Lat: 50,
			LFBEntries: 10, SBEntries: 56, ROB: 224, RetireWidth: 4,
			MissOverheadNs: 25,
		},
		LocalPipelineNs: 15,
		LocalDRAM: dram.Config{
			Channels: 6, BanksPerChannel: 32, ChannelBW: 8.67,
			RowBytes: 8192, Timing: dram.DDR4(),
		},
		UPI:         link.Config{PropagationNs: 24, ReqBW: 40, RspBW: 40},
		NUMAExtraNs: 0,
		RefLocalLat: 90, RefLocalBW: 52,
		RefRemoteLat: 140, RefRemoteBW: 32,
	}
}

// SKX8S returns the 8-socket Skylake platform; its most distant memory
// is the paper's 410 ns latency level.
func SKX8S() Platform {
	p := SKX2S()
	p.CPU.Name = "SKX8S"
	p.CPU.Cores = 28
	p.CPU.FreqGHz = 2.5
	p.CPU.L3Bytes = 38_500 << 10
	p.LocalPipelineNs = 8
	p.LocalDRAM.ChannelBW = 18.8
	// Multi-hop path across the 8-socket mesh: long, thin.
	p.UPI = link.Config{PropagationNs: 160, ReqBW: 8.75, RspBW: 8.75}
	p.RefLocalLat, p.RefLocalBW = 81, 109
	p.RefRemoteLat, p.RefRemoteBW = 410, 7
	return p
}

// Platforms returns all five platforms in Table 1 order.
func Platforms() []Platform {
	return []Platform{SPR2S(), EMR2S(), EMR2SPrime(), SKX2S(), SKX8S()}
}

// PlatformByName looks a platform up by CPU name.
func PlatformByName(name string) (Platform, bool) {
	for _, p := range Platforms() {
		if p.CPU.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// DeviceByName builds the measurement tools' device for name with the
// platform it hangs off: Local and NUMA DRAM and CXL-A..CXL-C on SPR,
// CXL-D on EMR′ (the only platform the paper attaches it to).
func DeviceByName(name string, seed uint64) (Platform, mem.Device, bool) {
	spr := SPR2S()
	switch name {
	case "Local":
		return spr, spr.LocalDevice(), true
	case "NUMA":
		return spr, spr.NUMADevice(seed), true
	case "CXL-D":
		emrP := EMR2SPrime()
		return emrP, emrP.CXLDevice(cxl.ProfileD(), seed), true
	}
	if prof, ok := cxl.ProfileByName(name); ok {
		return spr, spr.CXLDevice(prof, seed), true
	}
	return Platform{}, nil, false
}

// LocalDevice builds the platform's socket-local DRAM device.
func (p Platform) LocalDevice() mem.Device {
	return imc.New(imc.Config{Name: "Local", PipelineNs: p.LocalPipelineNs, DRAM: p.LocalDRAM})
}

// NUMADevice builds the one-hop remote-socket DRAM device.
func (p Platform) NUMADevice(seed uint64) mem.Device {
	inner := imc.New(imc.Config{Name: "Local", PipelineNs: p.LocalPipelineNs, DRAM: p.LocalDRAM})
	return topology.NewRemote("NUMA", inner, p.UPI, p.NUMAExtraNs, seed)
}

// CXLDevice builds a locally attached CXL expander.
func (p Platform) CXLDevice(prof cxl.Profile, seed uint64) mem.Device {
	return cxl.New(prof, seed)
}

// cxlRemoteExtraNs captures the measured per-device latency added by one
// NUMA hop beyond the platform's own hop cost (Table 1 "Remote" rows:
// +161/202/227/94 ns for A-D respectively).
func cxlRemoteExtraNs(name string) float64 {
	switch name {
	case "CXL-A":
		return 79
	case "CXL-B":
		return 120
	case "CXL-C":
		return 145
	default:
		return 0
	}
}

// CXLNUMACongestion parameterizes the cross-socket interference windows
// that make CXL+NUMA tail latencies pathological (Figure 8c/8d).
var CXLNUMACongestion = topology.CongestionConfig{
	PeriodNs:     25_000,
	WindowNs:     12_000,
	RefRatePerNs: 0.02,
}

// CXLNUMADevice builds a CXL expander attached to the *other* socket,
// reached through the UPI hop with load-dependent congestion.
func (p Platform) CXLNUMADevice(prof cxl.Profile, seed uint64) mem.Device {
	dev := cxl.New(prof, seed)
	congested := topology.NewCongested(prof.Name+"+cong", dev, CXLNUMACongestion)
	name := prof.Name + "+NUMA"
	return topology.NewRemote(name, congested, p.UPI, cxlRemoteExtraNs(prof.Name), seed^0x5f356495)
}

// CXLSwitchDevice builds a CXL expander behind one switch hop
// (~+100 ns each way per public data referenced in Figure 1).
func (p Platform) CXLSwitchDevice(prof cxl.Profile, seed uint64) mem.Device {
	dev := cxl.New(prof, seed)
	return topology.NewSwitched(prof.Name+"+Switch", dev, 100, 50)
}

// CXLInterleaveDevice builds an n-way hardware-interleaved set of
// identical CXL expanders (Figure 8f uses 2x CXL-D).
func (p Platform) CXLInterleaveDevice(prof cxl.Profile, n int, seed uint64) mem.Device {
	devs := make([]mem.Device, n)
	for i := range devs {
		devs[i] = cxl.New(prof, seed+uint64(i)*7919)
	}
	return topology.NewInterleave(fmt.Sprintf("%sx%d", prof.Name, n), devs, 256)
}

// Setup names one (platform, memory config) combination used in the
// paper's sweeps.
type Setup struct {
	Name     string
	Platform Platform
	// RefLatencyNs is the nominal idle latency of the setup (Table 1 /
	// §3.1), used for ordering and reporting.
	RefLatencyNs float64
	Build        func(seed uint64) mem.Device
}

// LatencySetups returns the paper's 11 {CPU} x {NUMA, CXL} combinations
// from Figure 9a, ordered by nominal latency within each platform
// family as in the paper's plot.
func LatencySetups() []Setup {
	skx2, skx8 := SKX2S(), SKX8S()
	spr, emr, emrP := SPR2S(), EMR2S(), EMR2SPrime()
	return []Setup{
		{Name: "SKX-140ns", Platform: skx2, RefLatencyNs: 140,
			Build: func(seed uint64) mem.Device { return skx2.NUMADevice(seed) }},
		{Name: "SKX-190ns", Platform: skx2, RefLatencyNs: 190,
			Build: func(seed uint64) mem.Device {
				// 190 ns achieved by lowering the uncore frequency: the
				// same NUMA path with extra fixed latency.
				p := skx2
				p.NUMAExtraNs = 50
				return p.NUMADevice(seed)
			}},
		{Name: "SPR-NUMA", Platform: spr, RefLatencyNs: 191,
			Build: func(seed uint64) mem.Device { return spr.NUMADevice(seed) }},
		{Name: "SPR-CXL-A", Platform: spr, RefLatencyNs: 214,
			Build: func(seed uint64) mem.Device { return spr.CXLDevice(cxl.ProfileA(), seed) }},
		{Name: "SPR-CXL-B", Platform: spr, RefLatencyNs: 271,
			Build: func(seed uint64) mem.Device { return spr.CXLDevice(cxl.ProfileB(), seed) }},
		{Name: "EMR-NUMA", Platform: emr, RefLatencyNs: 193,
			Build: func(seed uint64) mem.Device { return emr.NUMADevice(seed) }},
		{Name: "EMR-CXL-A", Platform: emr, RefLatencyNs: 214,
			Build: func(seed uint64) mem.Device { return emr.CXLDevice(cxl.ProfileA(), seed) }},
		{Name: "EMR-CXL-B", Platform: emr, RefLatencyNs: 271,
			Build: func(seed uint64) mem.Device { return emr.CXLDevice(cxl.ProfileB(), seed) }},
		{Name: "EMR-CXL-D", Platform: emrP, RefLatencyNs: 239,
			Build: func(seed uint64) mem.Device { return emrP.CXLDevice(cxl.ProfileD(), seed) }},
		{Name: "EMR-CXL-C", Platform: emr, RefLatencyNs: 394,
			Build: func(seed uint64) mem.Device { return emr.CXLDevice(cxl.ProfileC(), seed) }},
		{Name: "SKX-410ns", Platform: skx8, RefLatencyNs: 410,
			Build: func(seed uint64) mem.Device { return skx8.NUMADevice(seed) }},
	}
}
