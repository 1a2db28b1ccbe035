// Command mlc is an Intel-MLC-style measurement tool for the simulated
// devices: idle latency, bandwidth, and loaded-latency sweeps.
//
// Usage:
//
//	mlc [-device NAME] [-duration NS] [idle|bandwidth|loaded|matrix]
//
// Devices: Local, NUMA, CXL-A, CXL-B, CXL-C, CXL-D (hosted per Table 1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/moatlab/melody/internal/mlc"
	"github.com/moatlab/melody/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	device := fs.String("device", "Local", "device: Local, NUMA, CXL-A..CXL-D")
	duration := fs.Float64("duration", 200_000, "measurement duration (simulated ns)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mode := "matrix"
	if fs.NArg() > 0 {
		mode = fs.Arg(0)
	}

	cfg := mlc.DefaultConfig()
	cfg.DurationNs = *duration
	cfg.Seed = *seed

	plat, dev, ok := platform.DeviceByName(*device, *seed)
	if !ok {
		fmt.Fprintf(stderr, "mlc: unknown device %q\n", *device)
		return 1
	}

	switch mode {
	case "idle":
		fmt.Fprintf(stdout, "%s idle latency: %.0f ns\n", *device, plat.CPU.MissOverheadNs+mlc.IdleLatency(dev, cfg))
	case "bandwidth":
		fmt.Fprintf(stdout, "%s read bandwidth: %.1f GB/s\n", *device, mlc.Bandwidth(dev, 1.0, cfg))
	case "loaded":
		fmt.Fprintf(stdout, "%s loaded latency (read-only):\n", *device)
		for _, p := range mlc.LoadedLatency(dev, 1.0, mlc.StandardDelays(), cfg) {
			fmt.Fprintf(stdout, "  delay %6.0f ns: %7.1f GB/s  avg %7.0f ns\n",
				p.InjectDelayNs, p.BandwidthGBs, p.AvgLatencyNs+plat.CPU.MissOverheadNs)
		}
	case "matrix":
		fmt.Fprintf(stdout, "%s:\n", *device)
		fmt.Fprintf(stdout, "  idle latency  %8.0f ns\n", plat.CPU.MissOverheadNs+mlc.IdleLatency(dev, cfg))
		for _, ratio := range mlc.RWRatios() {
			fmt.Fprintf(stdout, "  bandwidth R:W %-4s %7.1f GB/s\n", ratio.Name, mlc.Bandwidth(dev, ratio.ReadFrac, cfg))
		}
	default:
		fmt.Fprintf(stderr, "mlc: unknown mode %q (idle|bandwidth|loaded|matrix)\n", mode)
		return 2
	}
	return 0
}
