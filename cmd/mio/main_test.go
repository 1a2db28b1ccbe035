package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunBadInputs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-device", "bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown device: exit %d, want 1", code)
	}
	if code := run([]string{"-noise", "scream"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown noise: exit %d, want 2", code)
	}
}

// TestBuildDeviceNames checks that -device builds every device the
// tool documents and refuses a name it does not know.
func TestBuildDeviceNames(t *testing.T) {
	for _, name := range []string{"Local", "NUMA", "CXL-A", "CXL-B", "CXL-C", "CXL-D"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-device", name, "-duration", "20000"}, &out, &errOut); code != 0 {
			t.Fatalf("device %q not recognized: exit %d, stderr:\n%s", name, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-device", "DDR9", "-duration", "20000"}, &out, &errOut); code != 1 {
		t.Fatalf("bogus device accepted: exit %d", code)
	}
}

func TestRunEndToEnd(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-device", "CXL-B", "-duration", "20000"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "p99.9-p50 gap") {
		t.Fatalf("output missing tail-gap line:\n%s", out.String())
	}
}

func TestRunNoiseAndPrefetchEndToEnd(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-device", "CXL-A", "-duration", "20000", "-noise", "rw"}, &out, &errOut); code != 0 {
		t.Fatalf("noise run: exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `noise="rw"`) {
		t.Fatalf("noise run output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-device", "CXL-B", "-prefetch"}, &out, &errOut); code != 0 {
		t.Fatalf("prefetch run: exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "prefetched") {
		t.Fatalf("prefetch run output:\n%s", out.String())
	}
}
