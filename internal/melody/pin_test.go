package melody

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/mio"
	"github.com/moatlab/melody/internal/mlc"
	"github.com/moatlab/melody/internal/platform"
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
