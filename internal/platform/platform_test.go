package platform

import (
	"math"
	"testing"

	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/mlc"
)

// withinPct checks |got-want|/want <= pct/100.
func withinPct(got, want, pct float64) bool {
	return math.Abs(got-want) <= want*pct/100
}

func idleCfg() mlc.Config {
	cfg := mlc.DefaultConfig()
	cfg.DurationNs = 150_000
	return cfg
}

// TestTable1IdleLatency verifies every platform's local and remote idle
// latency against Table 1 within 10%.
func TestTable1IdleLatency(t *testing.T) {
	for _, p := range Platforms() {
		local := p.CPU.MissOverheadNs + mlc.IdleLatency(p.LocalDevice(), idleCfg())
		if !withinPct(local, p.RefLocalLat, 10) {
			t.Errorf("%s local idle latency = %.0f ns, want %.0f +-10%%", p.CPU.Name, local, p.RefLocalLat)
		}
		remote := p.CPU.MissOverheadNs + mlc.IdleLatency(p.NUMADevice(1), idleCfg())
		if !withinPct(remote, p.RefRemoteLat, 10) {
			t.Errorf("%s remote idle latency = %.0f ns, want %.0f +-10%%", p.CPU.Name, remote, p.RefRemoteLat)
		}
	}
}

// TestTable1CXLIdleLatency verifies the four CXL devices' local idle
// latencies (214/271/394/239 ns) as measured from their host platforms.
func TestTable1CXLIdleLatency(t *testing.T) {
	cases := []struct {
		prof cxl.Profile
		host Platform
		want float64
	}{
		{cxl.ProfileA(), SPR2S(), 214},
		{cxl.ProfileB(), SPR2S(), 271},
		{cxl.ProfileC(), SPR2S(), 394},
		{cxl.ProfileD(), EMR2SPrime(), 239},
	}
	for _, c := range cases {
		got := c.host.CPU.MissOverheadNs + mlc.IdleLatency(c.host.CXLDevice(c.prof, 1), idleCfg())
		if !withinPct(got, c.want, 10) {
			t.Errorf("%s idle latency = %.0f ns, want %.0f +-10%%", c.prof.Name, got, c.want)
		}
	}
}

// TestTable1CXLRemoteLatency verifies the CXL+NUMA idle latencies
// (375/473/621/333 ns).
func TestTable1CXLRemoteLatency(t *testing.T) {
	cases := []struct {
		prof cxl.Profile
		host Platform
		want float64
	}{
		{cxl.ProfileA(), SPR2S(), 375},
		{cxl.ProfileB(), SPR2S(), 473},
		{cxl.ProfileC(), SPR2S(), 621},
		{cxl.ProfileD(), EMR2SPrime(), 333},
	}
	for _, c := range cases {
		got := c.host.CPU.MissOverheadNs + mlc.IdleLatency(c.host.CXLNUMADevice(c.prof, 1), idleCfg())
		if !withinPct(got, c.want, 12) {
			t.Errorf("%s+NUMA idle latency = %.0f ns, want %.0f +-12%%", c.prof.Name, got, c.want)
		}
	}
}

func bwCfg() mlc.Config {
	cfg := mlc.DefaultConfig()
	cfg.DurationNs = 120_000
	return cfg
}

// TestTable1LocalBandwidth verifies local read bandwidth per platform.
func TestTable1LocalBandwidth(t *testing.T) {
	for _, p := range Platforms() {
		got := mlc.Bandwidth(p.LocalDevice(), 1.0, bwCfg())
		if !withinPct(got, p.RefLocalBW, 15) {
			t.Errorf("%s local BW = %.1f GB/s, want %.0f +-15%%", p.CPU.Name, got, p.RefLocalBW)
		}
	}
}

// TestTable1CXLBandwidth verifies the CXL devices' MLC read bandwidth
// (24/22/18/52 GB/s).
func TestTable1CXLBandwidth(t *testing.T) {
	cases := []struct {
		prof cxl.Profile
		want float64
	}{
		{cxl.ProfileA(), 24},
		{cxl.ProfileB(), 22},
		{cxl.ProfileC(), 18},
		{cxl.ProfileD(), 52},
	}
	host := SPR2S()
	for _, c := range cases {
		got := mlc.Bandwidth(host.CXLDevice(c.prof, 1), 1.0, bwCfg())
		if !withinPct(got, c.want, 15) {
			t.Errorf("%s read BW = %.1f GB/s, want %.0f +-15%%", c.prof.Name, got, c.want)
		}
	}
}

// TestNUMABandwidth verifies the cross-socket bandwidth reduction.
func TestNUMABandwidth(t *testing.T) {
	p := SPR2S()
	local := mlc.Bandwidth(p.LocalDevice(), 1.0, bwCfg())
	remote := mlc.Bandwidth(p.NUMADevice(1), 1.0, bwCfg())
	if remote >= local {
		t.Fatalf("NUMA BW (%.1f) not below local (%.1f)", remote, local)
	}
	if !withinPct(remote, p.RefRemoteBW, 15) {
		t.Errorf("NUMA BW = %.1f, want %.0f +-15%%", remote, p.RefRemoteBW)
	}
}

// TestLatencySetupsOrdered sanity-checks the Figure 9a setup list.
func TestLatencySetupsOrdered(t *testing.T) {
	setups := LatencySetups()
	if len(setups) != 11 {
		t.Fatalf("got %d setups, want 11", len(setups))
	}
	for _, s := range setups {
		dev := s.Build(1)
		if dev == nil {
			t.Fatalf("%s built nil device", s.Name)
		}
		got := s.Platform.CPU.MissOverheadNs + mlc.IdleLatency(dev, idleCfg())
		if !withinPct(got, s.RefLatencyNs, 15) {
			t.Errorf("%s idle latency = %.0f, want %.0f +-15%%", s.Name, got, s.RefLatencyNs)
		}
	}
}

// TestInterleaveDoublesCXLD reproduces the Figure 8f premise: 2x CXL-D
// interleaved roughly doubles bandwidth.
func TestInterleaveDoublesCXLD(t *testing.T) {
	p := EMR2SPrime()
	one := mlc.Bandwidth(p.CXLDevice(cxl.ProfileD(), 1), 1.0, bwCfg())
	two := mlc.Bandwidth(p.CXLInterleaveDevice(cxl.ProfileD(), 2, 1), 1.0, bwCfg())
	if two < one*1.6 {
		t.Fatalf("2x CXL-D BW = %.1f, single = %.1f; want ~2x", two, one)
	}
}

// TestSwitchAddsLatency checks the Figure 1 CXL+Switch data point:
// roughly +200 ns over the local CXL latency.
func TestSwitchAddsLatency(t *testing.T) {
	p := SPR2S()
	base := mlc.IdleLatency(p.CXLDevice(cxl.ProfileA(), 1), idleCfg())
	switched := mlc.IdleLatency(p.CXLSwitchDevice(cxl.ProfileA(), 1), idleCfg())
	if d := switched - base; d < 150 || d > 280 {
		t.Fatalf("switch hop added %.0f ns, want ~200", d)
	}
}

var _ = mem.LineSize // keep mem imported for doc-adjacent constants

// TestDeviceByName pins the measurement tools' device table: each name
// builds a device on its platform, and an unknown name is refused.
func TestDeviceByName(t *testing.T) {
	spr, emrP := SPR2S().CPU.Name, EMR2SPrime().CPU.Name
	for _, c := range []struct{ name, cpu string }{
		{"Local", spr}, {"NUMA", spr}, {"CXL-A", spr},
		{"CXL-B", spr}, {"CXL-C", spr}, {"CXL-D", emrP},
	} {
		p, dev, ok := DeviceByName(c.name, 1)
		if !ok || dev == nil {
			t.Fatalf("device %q not recognized", c.name)
		}
		if p.CPU.Name != c.cpu {
			t.Errorf("device %q on %s, want %s", c.name, p.CPU.Name, c.cpu)
		}
	}
	if _, dev, ok := DeviceByName("DDR9", 1); ok || dev != nil {
		t.Fatal("bogus device accepted")
	}
}
