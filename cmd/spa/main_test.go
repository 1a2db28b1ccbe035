package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/platform"
)

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "no-such-workload"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown workload: exit %d, want 1", code)
	}
	if code := run([]string{"-workload", "605.mcf_s", "-config", "bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown config: exit %d, want 1", code)
	}
	if code := run([]string{"-workload", "605.mcf_s", "-platform", "bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown platform: exit %d, want 1", code)
	}
}

// TestRunBadOutputPaths: unwritable -csv/-profile destinations must
// fail at flag-parse time (exit 2), before any simulation runs.
func TestRunBadOutputPaths(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	under := filepath.Join(blocker, "out")
	for _, flag := range []string{"-csv", "-profile"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "605.mcf_s", flag, under}, &out, &errOut)
		if code != 2 {
			t.Fatalf("%s %s: exit %d, want 2 (fail fast)", flag, under, code)
		}
		if !strings.Contains(errOut.String(), flag) {
			t.Fatalf("%s error does not name the flag: %s", flag, errOut.String())
		}
	}
}

// TestRunProfileEndToEnd: -profile must write a gzipped pprof profile
// of the target run.
func TestRunProfileEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spa.pb.gz")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-workload", "micro-chase-256m", "-config", "CXL-B",
		"-instructions", "80000", "-periods", "0",
		"-profile", path,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("profile is not gzipped (leading bytes % x)", raw[:min(len(raw), 2)])
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d, stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "605.mcf_s") {
		t.Fatalf("-list output missing catalog entries:\n%s", out.String())
	}
}

func TestParseConfigVariants(t *testing.T) {
	p := platform.EMR2S()
	for _, name := range []string{"NUMA", "CXL-A", "CXL-D", "CXL-B+NUMA"} {
		if _, ok := parseConfig(p, name); !ok {
			t.Fatalf("config %q not recognized", name)
		}
	}
	for _, name := range []string{"", "bogus", "+NUMA", "bogus+NUMA"} {
		if _, ok := parseConfig(p, name); ok {
			t.Fatalf("config %q accepted", name)
		}
	}
}

// TestRunExplainEndToEnd is the tiny e2e: a short -explain run must
// emit the classic breakdown, the phase narrative, and the CSV export.
func TestRunExplainEndToEnd(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "stream.csv")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-workload", "micro-chase-256m", "-config", "CXL-B",
		"-instructions", "80000", "-periods", "4",
		"-explain", "-csv", csv,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"actual slowdown",
		"period-based breakdown",
		"phase-resolved narrative",
		"instructions ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(raw), "\n", 2)[0]
	for _, col := range []string{"time_ns", "cpmu_queue_depth"} {
		if !strings.Contains(head, col) {
			t.Fatalf("csv header missing %q: %s", col, head)
		}
	}

	// The goldens pin every byte of both outputs; they are amd64 values
	// (the Go spec lets other architectures fuse x*y+z).
	if runtime.GOARCH != "amd64" {
		return
	}
	digest := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])[:16]
	}
	if got, want := digest(out.Bytes()), "29dc60148618636d"; got != want {
		t.Errorf("stdout digest %s, want %s", got, want)
	}
	if got, want := digest(raw), "f9e40a075231a0c6"; got != want {
		t.Errorf("csv digest %s, want %s", got, want)
	}
}
