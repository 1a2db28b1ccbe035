package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/obs"
)

// writeManifest writes a minimal gate-able manifest with the given
// latency mean.
func writeManifest(t *testing.T, dir, name string, latencyMean float64) string {
	t.Helper()
	m := melody.Manifest{
		Tool: "melody", Seed: 7, Workers: 2, Workloads: 4,
		Experiments: []melody.ExperimentTiming{{ID: "fig5", WallS: 1}},
		Cells: []melody.CellTiming{
			{Workload: "w", Config: "CXL-B", Platform: "EMR2S", Seed: 3, WallMs: 2},
		},
		Timeseries: []melody.SampledSeries{},
		Registry: obs.Export{
			Counters: map[string]uint64{},
			Gauges:   map[string]float64{},
			Histograms: map[string]obs.HistogramExport{
				"device/EMR2S/CXL-B/latency_ns": {Summary: obs.Summary{Count: 100, Mean: latencyMean, P99: latencyMean * 2}},
			},
		},
	}
	path := filepath.Join(dir, name)
	if err := melody.WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunIdenticalExitsZero(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 400)
	b := writeManifest(t, dir, "b.json", 400)
	var out, errb bytes.Buffer
	if code := run([]string{a, b}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no changes beyond threshold") {
		t.Fatalf("stdout:\n%s", out.String())
	}
}

func TestRunRegressionExitsOne(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 400)
	b := writeManifest(t, dir, "b.json", 480) // +20% latency
	var out, errb bytes.Buffer
	if code := run([]string{a, b}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGR") {
		t.Fatalf("stdout:\n%s", out.String())
	}
	// Order matters: improvement direction exits clean.
	if code := run([]string{b, a}, &out, &errb); code != 0 {
		t.Fatalf("improvement exit = %d", code)
	}
}

func TestRunThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 400)
	b := writeManifest(t, dir, "b.json", 480)
	var out, errb bytes.Buffer
	// +20% is inside a 30% threshold.
	if code := run([]string{"-threshold", "0.3", a, b}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if code := run([]string{"-threshold", "-1", a, b}, &out, &errb); code != 2 {
		t.Fatalf("negative threshold exit = %d", code)
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 400)
	b := writeManifest(t, dir, "b.json", 480)
	jsonPath := filepath.Join(dir, "report.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-json", jsonPath, "-quiet", a, b}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if out.Len() != 0 {
		t.Fatalf("-quiet still wrote table:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Old         string `json:"old"`
		Regressions []any  `json:"regressions"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Old != a || len(rep.Regressions) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunUsageAndLoadErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"only-one.json"}, &out, &errb); code != 2 {
		t.Fatalf("one arg exit = %d", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 400)
	if code := run([]string{a, filepath.Join(dir, "missing.json")}, &out, &errb); code != 2 {
		t.Fatalf("missing file exit = %d", code)
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"tool":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{a, foreign}, &out, &errb); code != 2 {
		t.Fatalf("foreign manifest exit = %d", code)
	}
}

// TestRunURLOperands points the gate at a live HTTP server — the
// /runs/{id}/manifest shape — mixing a URL operand with a file operand.
func TestRunURLOperands(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 400)
	b := writeManifest(t, dir, "b.json", 480)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/runs/run-000001/manifest":
			http.ServeFile(w, r, a)
		case "/runs/run-000002/manifest":
			http.ServeFile(w, r, b)
		default:
			http.Error(w, "unknown job", http.StatusNotFound)
		}
	}))
	defer srv.Close()

	var out, errb bytes.Buffer
	if code := run([]string{srv.URL + "/runs/run-000001/manifest", srv.URL + "/runs/run-000002/manifest"}, &out, &errb); code != 1 {
		t.Fatalf("URL regression exit = %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "REGR") {
		t.Fatalf("stdout:\n%s", out.String())
	}
	// Mixed operands: file OLD, URL NEW.
	if code := run([]string{b, srv.URL + "/runs/run-000001/manifest"}, &out, &errb); code != 0 {
		t.Fatalf("mixed-operand improvement exit = %d, stderr:\n%s", code, errb.String())
	}
	// A 404 from the service is a load error (exit 2), not a pass.
	errb.Reset()
	if code := run([]string{a, srv.URL + "/runs/run-000099/manifest"}, &out, &errb); code != 2 {
		t.Fatalf("404 operand exit = %d", code)
	}
	if !strings.Contains(errb.String(), "404") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}
