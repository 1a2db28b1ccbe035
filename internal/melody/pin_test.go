package melody

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/imc"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/mio"
	"github.com/moatlab/melody/internal/mlc"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/workload"
)

// floatDigest is the first 16 hex digits of the sha256 of the values'
// IEEE-754 bits, little-endian: any change to any bit of any value
// changes it.
func floatDigest(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSiblingPathPinned pins the exact output of every path that steps
// sibling threads in wake order: workload cells with sibling traffic
// (core.ContendedDevice) and the MLC and MIO harnesses (traffic.Run).
// Each digest covers the float bits of one cell's Result.Delta or one
// harness call's results, so a failure names what moved. The goldens
// are amd64 values.
func TestSiblingPathPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are amd64 float bits; the Go spec lets the compiler fuse x*y+z on %s, which can change them", runtime.GOARCH)
	}
	want := map[string]string{
		"603.bwaves_s/Local":         "99531c129c50725c",
		"603.bwaves_s/CXL-B":         "790f8a780e7d5fd3",
		"607.cactuBSSN_s/Local":      "daf617f4a2fee91f",
		"607.cactuBSSN_s/CXL-B":      "cf5661ea302d918d",
		"620.omnetpp_s/Local":        "0303c14cc2a52981",
		"620.omnetpp_s/CXL-B":        "6cbf4da67b756b21",
		"parsec-streamcluster/Local": "9c59928242f1a24e",
		"parsec-streamcluster/CXL-B": "0ea26366a850964e",
		"mlc.IdleLatency/Local":      "341998d36cb1e769",
		"mlc.IdleLatency/CXL-B":      "252814b910b26ed2",
		"mlc.Bandwidth/Local":        "dcd11b9ce587c2b1",
		"mlc.Bandwidth/CXL-B":        "74e5c9727892a938",
		"mlc.LoadedLatency/Local":    "d77f13b5090084fd",
		"mlc.LoadedLatency/CXL-B":    "a3abd9716e353a6b",
		"mio.Run/Local":              "eaf51681004570d5",
		"mio.Run/CXL-B":              "5391ecc86b0c536d",
	}
	got := map[string]string{}

	RegisterWorkloads()
	emr := platform.EMR2S()
	r := NewRunner(emr)
	r.Instructions = 60_000
	r.Warmup = 15_000
	r.Workers = 1
	configs := []MemConfig{Local(emr), CXL(emr, cxl.ProfileB())}
	for _, name := range []string{"603.bwaves_s", "607.cactuBSSN_s", "620.omnetpp_s", "parsec-streamcluster"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		for _, mc := range configs {
			res, err := r.RunCtx(context.Background(), RunRequest{Spec: spec, Config: mc})
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/"+mc.Name] = floatDigest(res.Delta[:])
		}
	}

	cfg := mlc.DefaultConfig()
	cfg.DurationNs = 20_000
	mcfg := mio.DefaultConfig()
	mcfg.DurationNs = 40_000
	mcfg.Noise = mio.NoiseReadWrite
	mcfg.NoiseThreads = 8
	mcfg.NoiseDelayNs = 100
	mcfg.ChaseThreads = 2
	for _, mc := range configs {
		dev := func() mem.Device { return mc.Build(7) }
		got["mlc.IdleLatency/"+mc.Name] = floatDigest([]float64{mlc.IdleLatency(dev(), cfg)})
		got["mlc.Bandwidth/"+mc.Name] = floatDigest([]float64{mlc.Bandwidth(dev(), 0.75, cfg)})
		var loaded []float64
		for _, p := range mlc.LoadedLatency(dev(), 1, []float64{0, 200, 2000}, cfg) {
			loaded = append(loaded, p.InjectDelayNs, p.BandwidthGBs, p.AvgLatencyNs, p.P50Ns, p.P999Ns)
		}
		got["mlc.LoadedLatency/"+mc.Name] = floatDigest(loaded)
		res := mio.Run(dev(), mcfg)
		got["mio.Run/"+mc.Name] = floatDigest(append([]float64{res.BandwidthGBs}, res.Latencies...))
	}

	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
}

// TestSamplingPathPinned pins the exact output of every path that reads
// a simulated-time sample stream: fig16's period report, a 2000 ns and
// a 20000-cycle stream of one workload on Local and CXL-A, and the
// telemetry export (sampled series and cell list) of an engine run of
// fig16 and fig8f under a cycle cadence. The goldens are amd64 values.
func TestSamplingPathPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are amd64 float bits; the Go spec lets the compiler fuse x*y+z on %s, which can change them", runtime.GOARCH)
	}
	want := map[string]string{
		"fig16/report":         "5d18f74d6f12e2fb",
		"ns2000/Local":         "1270:c624f3214cc909d3",
		"ns2000/CXL-A":         "2269:f7275cf1607decd2",
		"cyc20000/Local":       "266:aba222ae489a0780",
		"cyc20000/CXL-A":       "476:fdff21c9de656ee9",
		"fig16/sampled-report": "5d18f74d6f12e2fb",
		"fig8f/sampled-report": "5985f2c01b5a8aee",
		"telemetry/series":     "c98bf2a4f5b4721d",
		"telemetry/cells":      "14:c118d14ffef81330",
		"telemetry/registry":   "449fc4e8e275a56a",
	}
	got := map[string]string{}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])[:16]
	}

	opts := Options{MaxWorkloads: 2, Instructions: 120_000, Warmup: 30_000, Seed: 1}
	eng := NewEngine(opts)
	eng.Workers = 1
	rep, _ := eng.RunByID(context.Background(), "fig16")
	got["fig16/report"] = sum([]byte(strings.Join(rep.Lines, "\n")))

	RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("605.mcf_s")
	ns := NewRunner(emr)
	ns.Instructions, ns.Warmup, ns.Workers = 60_000, 15_000, 1
	ns.Cadence = core.EveryNs(2_000)
	cyc := NewRunner(emr)
	cyc.Instructions, cyc.Warmup, cyc.Workers = 60_000, 15_000, 1
	cyc.Cadence = core.EveryCycles(20_000)
	for _, mc := range []MemConfig{Local(emr), CXL(emr, cxl.ProfileA())} {
		req := RunRequest{Spec: spec, Config: mc}
		res, err := ns.RunCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var vals []float64
		for _, s := range res.Samples {
			vals = append(vals, s.TimeNs)
			vals = append(vals, s.Counters[:]...)
		}
		got["ns2000/"+mc.Name] = fmt.Sprintf("%d:%s", len(res.Samples), floatDigest(vals))
		res, err = cyc.RunCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		vals = vals[:0]
		for _, s := range res.Samples {
			d := s.Device
			vals = append(vals, s.TimeNs)
			vals = append(vals, s.Counters[:]...)
			vals = append(vals, d.TimeNs, float64(d.QueueDepth), float64(d.LinkCreditsInFlight),
				b2f(d.ThermalActive), d.UtilFrac, d.ReadGBs, d.WriteGBs,
				d.LinkReqNs, d.SchedWaitNs, d.MediaNs, d.LinkRspNs,
				float64(d.HiccupStalls), float64(d.ThermalStalls), float64(d.Requests), b2f(s.HasDevice))
		}
		got["cyc20000/"+mc.Name] = fmt.Sprintf("%d:%s", len(res.Samples), floatDigest(vals))
	}

	opts.SampleEveryCycles = 20_000
	eng = NewEngine(opts)
	eng.Workers = 1
	eng.Obs = NewTelemetry()
	for _, id := range []string{"fig16", "fig8f"} {
		rep, _ := eng.RunByID(context.Background(), id)
		got[id+"/sampled-report"] = sum([]byte(strings.Join(rep.Lines, "\n")))
	}
	raw, err := json.Marshal(eng.Obs.SampledSeries())
	if err != nil {
		t.Fatal(err)
	}
	got["telemetry/series"] = sum(raw)
	var cells []string
	for _, c := range eng.Obs.Cells() {
		cells = append(cells, fmt.Sprintf("%s|%s|%s|%d", c.Workload, c.Config, c.Platform, c.Seed))
	}
	sort.Strings(cells)
	got["telemetry/cells"] = fmt.Sprintf("%d:%s", len(cells), sum([]byte(strings.Join(cells, "\n"))))
	reg := eng.Obs.Registry.Snapshot()
	delete(reg.Histograms, "runner/cell_wall_ms")
	if raw, err = json.Marshal(reg); err != nil {
		t.Fatal(err)
	}
	got["telemetry/registry"] = sum(raw)

	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: digest %s, want %s", k, g, want[k])
		}
	}
}

// TestDevicePathPinned pins the exact output of every reader of a
// memory device's counters: the cpmu, table1 and fig3b reports, and,
// after one fixed seeded access mix with a Reset halfway, each CXL
// profile's CPMU counters, its Stats() and state-probe series (probe
// armed before the first access), the Stats() series of the same
// profile with no probe, and the Stats() series of EMR's local
// controller. The goldens are amd64 values.
func TestDevicePathPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are amd64 float bits; the Go spec lets the compiler fuse x*y+z on %s, which can change them", runtime.GOARCH)
	}
	want := map[string]string{
		"cpmu/report":          "15bd74ef5bedc85c",
		"table1/report":        "cc0a2d6f87143512",
		"fig3b/report":         "7963b0910300543b",
		"CXL-A/cpmu":           "3fcbd652081d0d7d",
		"CXL-A/stats":          "bd9bfa193d17ee9a",
		"CXL-A/probe":          "c3d4d3492526c21e",
		"CXL-A/stats-unprobed": "bd9bfa193d17ee9a",
		"CXL-B/cpmu":           "37712fb4b9f3ffcb",
		"CXL-B/stats":          "d897a8542d3dace2",
		"CXL-B/probe":          "ac349993674a07aa",
		"CXL-B/stats-unprobed": "d897a8542d3dace2",
		"CXL-C/cpmu":           "0b291001eb8c69ca",
		"CXL-C/stats":          "1d94b818639f3686",
		"CXL-C/probe":          "99768bef48a7af0f",
		"CXL-C/stats-unprobed": "1d94b818639f3686",
		"CXL-D/cpmu":           "77522241a5ab448d",
		"CXL-D/stats":          "3f1a168005de91dc",
		"CXL-D/probe":          "7067bcd4774fceef",
		"CXL-D/stats-unprobed": "3f1a168005de91dc",
		"Local/stats":          "10301b9ad4fbf4e5",
	}
	got := map[string]string{}

	eng := NewEngine(Options{DurationNs: 20_000, Seed: 1})
	eng.Workers = 1
	for _, id := range []string{"cpmu", "table1", "fig3b"} {
		rep, _ := eng.RunByID(context.Background(), id)
		h := sha256.Sum256([]byte(strings.Join(rep.Lines, "\n")))
		got[id+"/report"] = hex.EncodeToString(h[:])[:16]
	}

	statVals := func(s mem.DeviceStats) []float64 {
		return []float64{float64(s.Reads), float64(s.Writes), float64(s.RowHits), float64(s.RowMisses),
			float64(s.Retries), float64(s.Throttled), s.BusyNs, s.LastDone}
	}
	// mix drives dev through 40000 accesses (reads of every kind and
	// writes, 0-8 ns apart, so the governors engage) with a Reset and a
	// clock restart halfway, calling at every 1000th access.
	mix := func(dev mem.Device, at func(now float64)) {
		rng := sim.NewRand(29)
		now := 0.0
		for i := 0; i < 40_000; i++ {
			if i == 20_000 {
				dev.Reset()
				now = 0
			}
			now += rng.Float64() * 8
			dev.Access(now, rng.Uint64n(1<<30)&^(mem.LineSize-1), mem.Kind(rng.Intn(5)))
			if i%1000 == 999 {
				at(now)
			}
		}
	}
	for _, prof := range cxl.Profiles() {
		dev := cxl.New(prof, 7)
		dev.EnableStateProbe()
		var stats, probes []float64
		mix(dev, func(now float64) {
			stats = append(stats, statVals(dev.Stats())...)
			s := dev.ProbeState(now)
			probes = append(probes, s.TimeNs, float64(s.QueueDepth), float64(s.LinkCreditsInFlight),
				b2f(s.ThermalActive), s.UtilFrac, s.ReadGBs, s.WriteGBs,
				s.LinkReqNs, s.SchedWaitNs, s.MediaNs, s.LinkRspNs,
				float64(s.HiccupStalls), float64(s.ThermalStalls), float64(s.Requests))
		})
		p := dev.PMU()
		got[prof.Name+"/cpmu"] = floatDigest([]float64{p.LinkReqNs, p.SchedWaitNs, p.MediaNs, p.LinkRspNs,
			float64(p.Requests), float64(p.HiccupStalls), float64(p.ThermalStalls)})
		got[prof.Name+"/stats"] = floatDigest(stats)
		got[prof.Name+"/probe"] = floatDigest(probes)

		bare := cxl.New(prof, 7)
		stats = stats[:0]
		mix(bare, func(float64) { stats = append(stats, statVals(bare.Stats())...) })
		got[prof.Name+"/stats-unprobed"] = floatDigest(stats)
	}
	local := platform.EMR2S().LocalDevice().(*imc.Controller)
	var stats []float64
	mix(local, func(float64) { stats = append(stats, statVals(local.Stats())...) })
	got["Local/stats"] = floatDigest(stats)

	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: digest %s, want %s", k, g, want[k])
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
