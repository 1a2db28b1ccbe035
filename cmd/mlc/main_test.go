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
	if code := run([]string{"-duration", "20000", "warp"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown mode: exit %d, want 2", code)
	}
}

// TestBuildDeviceNames checks that -device builds every device the
// tool documents and refuses a name it does not know.
func TestBuildDeviceNames(t *testing.T) {
	for _, name := range []string{"Local", "NUMA", "CXL-A", "CXL-B", "CXL-C", "CXL-D"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-device", name, "-duration", "20000", "idle"}, &out, &errOut); code != 0 {
			t.Fatalf("device %q not recognized: exit %d, stderr:\n%s", name, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-device", "DDR9", "-duration", "20000", "idle"}, &out, &errOut); code != 1 {
		t.Fatalf("bogus device accepted: exit %d", code)
	}
}

func TestRunModesEndToEnd(t *testing.T) {
	cases := []struct {
		mode string
		want string
	}{
		{"idle", "idle latency"},
		{"bandwidth", "read bandwidth"},
		{"loaded", "loaded latency"},
		{"matrix", "bandwidth R:W"},
	}
	for _, c := range cases {
		t.Run(c.mode, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"-device", "CXL-B", "-duration", "20000", c.mode}, &out, &errOut)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
			}
			if !strings.Contains(out.String(), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out.String())
			}
		})
	}
}
