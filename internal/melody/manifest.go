package melody

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"github.com/moatlab/melody/internal/obs"
)

// ExperimentTiming is one experiment's wall time in the run manifest.
type ExperimentTiming struct {
	ID    string  `json:"id"`
	WallS float64 `json:"wall_s"`
}

// Manifest is the -metrics output: enough provenance to reproduce the
// run (versions, seed, parallelism), plus where the time went (per
// experiment and per cell) and the full telemetry registry dump. It is
// also the input format of the melodydiff regression gate, which is why
// it lives here rather than in cmd/melody: writer and reader must share
// one schema.
type Manifest struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`
	Seed      uint64 `json:"seed"`
	Workers   int    `json:"workers"`
	Workloads int    `json:"workloads"`
	// SpecHash is the content address of the RunSpec that produced this
	// run (see internal/melody/spec); runs started from raw Options lack
	// it. It ties a manifest back to the exact submitted spec.
	SpecHash string `json:"spec_hash,omitempty"`
	// Interrupted marks a manifest flushed after SIGINT/SIGTERM: it
	// covers only the cells that completed before cancellation.
	Interrupted bool               `json:"interrupted,omitempty"`
	Experiments []ExperimentTiming `json:"experiments"`
	Cells       []CellTiming       `json:"cells"`
	// Timeseries holds the per-cell sampled streams when -sample-every
	// was set (sorted by workload then config).
	Timeseries []SampledSeries `json:"timeseries"`
	Registry   obs.Export      `json:"registry"`
}

// BuildManifest assembles the manifest from a finished (or
// interrupted) run.
func BuildManifest(seed uint64, workers, workloads int, exps []ExperimentTiming, tel *Telemetry) Manifest {
	m := Manifest{
		Tool:        "melody",
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		Workers:     workers,
		Workloads:   workloads,
		Experiments: exps,
		Cells:       tel.Cells(),
		Timeseries:  tel.SampledSeries(),
		Registry:    tel.Registry.Export(),
	}
	if m.Experiments == nil {
		m.Experiments = []ExperimentTiming{}
	}
	if m.Cells == nil {
		m.Cells = []CellTiming{}
	}
	// The telemetry log records cells in completion order, which worker
	// scheduling makes nondeterministic; the manifest sorts them so two
	// runs of one configuration emit identical cell lists (melodydiff
	// and the byte-identity contract both lean on this).
	sort.Slice(m.Cells, func(i, j int) bool {
		a, b := m.Cells[i], m.Cells[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Platform != b.Platform {
			return a.Platform < b.Platform
		}
		return a.Seed < b.Seed
	})
	if m.Timeseries == nil {
		m.Timeseries = []SampledSeries{}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
	}
	return m
}

// StripHostTime zeroes every host-wall-clock field: per-cell WallMs,
// per-experiment WallS, and the runner/cell_wall_ms registry histogram.
// What remains is a function of the run's configuration — seed,
// workloads, experiment set, budgets, workers and spec_hash — and of
// the build and host it ran on: go_version, num_cpu, os, arch and
// module stay. That is the projection under which two runs of the same
// configuration with one binary on one kind of host are byte-identical,
// which both the serve-isolation tests and melodydiff's alignment rely
// on. Simulated-time metrics (device latency histograms, counter
// streams) are untouched: they are deterministic already.
func (m *Manifest) StripHostTime() {
	for i := range m.Experiments {
		m.Experiments[i].WallS = 0
	}
	for i := range m.Cells {
		m.Cells[i].WallMs = 0
	}
	delete(m.Registry.Histograms, "runner/cell_wall_ms")
}

// Address returns the manifest's content address: "sha256:" plus the
// hex digest of its canonical encoding under the StripHostTime
// projection. That projection removes every nondeterministic field, so
// two runs of the same spec with one binary on one host — via CLI
// flags or the job API — produce manifests with equal addresses; the
// job store and the CI parity gate both key on this. The worker count,
// spec hash, Go version, CPU count, OS, architecture and module path
// stay in the address, so runs that differ only in one of those have
// different addresses even when every simulated number matches.
func (m Manifest) Address() (string, error) {
	// StripHostTime mutates; work on a copy deep enough to cover the
	// fields it touches (timing slices and the histogram map).
	c := m
	c.Experiments = append([]ExperimentTiming(nil), m.Experiments...)
	c.Cells = append([]CellTiming(nil), m.Cells...)
	hists := make(map[string]obs.HistogramExport, len(m.Registry.Histograms))
	for k, v := range m.Registry.Histograms {
		hists[k] = v
	}
	c.Registry.Histograms = hists
	c.StripHostTime()
	raw, err := EncodeManifest(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// WriteManifest writes m as indented JSON.
func WriteManifest(path string, m Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// EncodeManifest renders m exactly as WriteManifest would (for
// byte-identity tests and in-memory diffing).
func EncodeManifest(m Manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", " ")
}

// LoadManifest reads a -metrics manifest back.
func LoadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return Manifest{}, fmt.Errorf("manifest %s: %w", path, err)
	}
	return m, nil
}

// DecodeManifest parses manifest bytes wherever they came from — a
// file, the run ledger, or a /runs/{id}/manifest response.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, err
	}
	if m.Tool != "" && m.Tool != "melody" {
		return Manifest{}, fmt.Errorf("written by %q, not melody", m.Tool)
	}
	return m, nil
}
