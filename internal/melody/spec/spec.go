// Package spec defines the versioned RunSpec: the single, canonical
// description of "one melody run" shared by every client of the
// execution engine. The CLI parses its flags into a RunSpec, the job
// API decodes one from a POST body, the content-addressed run store
// keys stored manifests by its hash, and the manifest records the hash
// for provenance — so "the same experiment" means exactly one thing
// across all four layers.
//
// Canonical form: Encode normalizes the spec (defaults filled in) and
// marshals it with every field present in a fixed order, so two specs
// that describe the same run — e.g. seed 0 and the default seed 1 —
// encode to identical bytes and hash to the same content address.
// Decode is strict: unknown fields and unsupported versions are
// rejected with a clear error rather than silently dropped, because a
// silently narrowed spec would be cached under the wrong identity.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
)

// Version is the RunSpec schema version this build speaks. Breaking
// schema changes bump it; Decode rejects every other version.
const Version = 1

// DefaultSeed is the seed a zero-valued spec normalizes to, matching
// the engine's Options.seed() behaviour.
const DefaultSeed = 1

// Output selects what a run delivers beyond the manifest.
type Output struct {
	// Reports is only hashed: no code reads it. Execute always renders
	// the text reports, and a job result carries only the manifest. It
	// stays because removing it would change every spec hash.
	Reports bool `json:"reports"`
}

// RunSpec is one experiment run: which experiments to execute and
// every knob that changes their results or artifacts. Fields mirror
// melody.Options plus the execution-level settings (workers, output).
//
// Identity note: Workers is part of the spec — and therefore of the
// content address — because the manifest records it, even though
// results are bit-identical across worker counts.
type RunSpec struct {
	Version     int      `json:"version"`
	Experiments []string `json:"experiments"`
	// Workloads caps the catalog subset (0 = all 265).
	Workloads int `json:"workloads"`
	// Instructions/Warmup override the runner budgets (0 = default).
	Instructions uint64 `json:"instructions"`
	Warmup       uint64 `json:"warmup"`
	// DurationNs scales device-level measurements (0 = default).
	DurationNs float64 `json:"duration_ns"`
	// SampleEveryCycles enables cycle-driven sampling (0 = off).
	SampleEveryCycles uint64 `json:"sample_every"`
	// Seed is the base simulation seed (0 normalizes to DefaultSeed).
	Seed uint64 `json:"seed"`
	// Workers bounds cell-level concurrency (0 = NumCPU).
	Workers int    `json:"workers"`
	Output  Output `json:"output"`
}

// Normalized returns the spec with defaults made explicit: a zero
// Version becomes the current Version and a zero Seed becomes
// DefaultSeed. Experiment order is preserved — it is semantic (reports
// render and experiments execute in spec order).
func (s RunSpec) Normalized() RunSpec {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	return s
}

// VersionError reports a spec whose version this build does not speak.
type VersionError struct {
	Got int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("spec: unsupported RunSpec version %d (this melody speaks version %d)", e.Got, Version)
}

// Validate checks structural validity. It does not check that the
// experiment ids exist — that is the executor's knowledge (see
// melody.VetSpec); keeping id resolution out of this package lets the
// job queue validate admission without importing the engine.
func (s RunSpec) Validate() error {
	if s.Version != Version {
		return &VersionError{Got: s.Version}
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("spec: no experiments given")
	}
	seen := make(map[string]bool, len(s.Experiments))
	for _, id := range s.Experiments {
		if id == "" {
			return fmt.Errorf("spec: empty experiment id")
		}
		if seen[id] {
			return fmt.Errorf("spec: duplicate experiment %q", id)
		}
		seen[id] = true
	}
	if s.Workloads < 0 {
		return fmt.Errorf("spec: negative workloads %d", s.Workloads)
	}
	if s.Workers < 0 {
		return fmt.Errorf("spec: negative workers %d", s.Workers)
	}
	if s.DurationNs < 0 || math.IsNaN(s.DurationNs) || math.IsInf(s.DurationNs, 0) {
		return fmt.Errorf("spec: invalid duration_ns %v", s.DurationNs)
	}
	return nil
}

// Encode renders the canonical JSON form: normalized, validated, every
// field present, fixed field order. Equal runs encode to equal bytes.
func Encode(s RunSpec) ([]byte, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Decode parses a spec strictly: the version must be one this build
// speaks (an absent or zero version means "current"), and unknown
// fields are an error — a spec this build cannot fully honour must not
// be half-executed and cached under a narrowed identity. The returned
// spec is normalized and validated.
func Decode(data []byte) (RunSpec, error) {
	// Read the version loosely first so a future-versioned spec fails
	// with "unsupported version", not "unknown field".
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return RunSpec{}, fmt.Errorf("spec: invalid JSON: %w", err)
	}
	if v.Version != 0 && v.Version != Version {
		return RunSpec{}, &VersionError{Got: v.Version}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("spec: %w", err)
	}
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return RunSpec{}, err
	}
	return s, nil
}

// Hash returns the spec's content address: "sha256:" plus the hex
// digest of the canonical encoding. Two invocations describing the
// same run — CLI flags or API body — hash identically, which is what
// lets the run store answer a resubmitted spec from cache.
func (s RunSpec) Hash() (string, error) {
	raw, err := Encode(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
