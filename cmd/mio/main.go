// Command mio measures cacheline-level latency distributions on the
// simulated devices — the paper's custom microbenchmark for CXL tail
// latencies.
//
// Usage:
//
//	mio [-device NAME] [-threads N] [-noise read|rw] [-noisethreads N]
//	    [-prefetch] [-duration NS]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/moatlab/melody/internal/mio"
	"github.com/moatlab/melody/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mio", flag.ContinueOnError)
	fs.SetOutput(stderr)
	device := fs.String("device", "CXL-B", "device: Local, NUMA, CXL-A..CXL-D")
	threads := fs.Int("threads", 1, "co-located pointer-chase threads")
	noise := fs.String("noise", "", "background noise: read or rw")
	noiseThreads := fs.Int("noisethreads", 4, "noise threads")
	prefetch := fs.Bool("prefetch", false, "strided chase with prefetching (Figure 6 mode)")
	duration := fs.Float64("duration", 400_000, "measurement duration (simulated ns)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	_, dev, ok := platform.DeviceByName(*device, *seed)
	if !ok {
		fmt.Fprintf(stderr, "mio: unknown device %q\n", *device)
		return 1
	}

	if *prefetch {
		cfg := mio.DefaultPrefetchedConfig()
		cfg.Chasers = *threads
		cfg.Seed = *seed
		res := mio.RunPrefetched(dev, cfg)
		fmt.Fprintf(stdout, "%s (prefetched, %d chasers): %s\n", *device, *threads, res.Summary)
		return 0
	}

	cfg := mio.DefaultConfig()
	cfg.DurationNs = *duration
	cfg.ChaseThreads = *threads
	cfg.Seed = *seed
	switch *noise {
	case "read":
		cfg.Noise = mio.NoiseRead
		cfg.NoiseThreads = *noiseThreads
		cfg.NoiseDelayNs = 120
	case "rw":
		cfg.Noise = mio.NoiseReadWrite
		cfg.NoiseThreads = *noiseThreads
		cfg.NoiseDelayNs = 200
	case "":
	default:
		fmt.Fprintf(stderr, "mio: unknown noise %q\n", *noise)
		return 2
	}
	res := mio.Run(dev, cfg)
	fmt.Fprintf(stdout, "%s (%d chasers, noise=%q): %s\n", *device, *threads, *noise, res.Summary)
	fmt.Fprintf(stdout, "p99.9-p50 gap: %.0f ns, bandwidth %.1f GB/s\n", res.TailGap(), res.BandwidthGBs)
	return 0
}
