package prom

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/moatlab/melody/internal/obs"
)

// goldenRegistry builds the fixture every test here renders: a slice of
// the real registry vocabulary (cache counters, a worker gauge, device
// histograms under two configs) small enough to pin byte-for-byte.
func goldenRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("runner/cache_hit").Add(7)
	reg.Counter("runner/cells_run").Add(3)
	reg.Counter("device/EMR2S/CXL-B/reads").Add(41)
	reg.Counter("device/EMR2S/CXL-B+NUMA/reads").Add(12)
	reg.Gauge("engine/workers").Set(8)
	h := reg.Histogram("device/EMR2S/CXL-B/latency_ns")
	h.Record(200)
	h.Record(200)
	h.Record(750)
	w := reg.Histogram("runner/cell_wall_ms")
	w.Record(1.5)
	return reg
}

const golden = `# TYPE melody_device_latency_ns histogram
melody_device_latency_ns_bucket{platform="EMR2S",config="CXL-B",le="201.72554817380947"} 2
melody_device_latency_ns_bucket{platform="EMR2S",config="CXL-B",le="756.1349867210237"} 3
melody_device_latency_ns_bucket{platform="EMR2S",config="CXL-B",le="+Inf"} 3
melody_device_latency_ns_sum{platform="EMR2S",config="CXL-B"} 1150
melody_device_latency_ns_count{platform="EMR2S",config="CXL-B"} 3
# TYPE melody_device_reads_total counter
melody_device_reads_total{platform="EMR2S",config="CXL-B"} 41
melody_device_reads_total{platform="EMR2S",config="CXL-B+NUMA"} 12
# TYPE melody_engine_workers gauge
melody_engine_workers 8
# TYPE melody_runner_cache_hit_total counter
melody_runner_cache_hit_total 7
# TYPE melody_runner_cell_wall_ms histogram
melody_runner_cell_wall_ms_bucket{le="1.5091644275934226"} 1
melody_runner_cell_wall_ms_bucket{le="+Inf"} 1
melody_runner_cell_wall_ms_sum 1.5
melody_runner_cell_wall_ms_count 1
# TYPE melody_runner_cells_run_total counter
melody_runner_cells_run_total 3
`

func render(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, "melody", reg.Export(), FormatText); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteGolden(t *testing.T) {
	got := render(t, goldenRegistry())
	if got != golden {
		t.Fatalf("exposition output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestWriteDeterministic(t *testing.T) {
	reg := goldenRegistry()
	a := render(t, reg)
	b := render(t, reg)
	if a != b {
		t.Fatal("two renders of the same registry differ")
	}
}

var (
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)
	leRe     = regexp.MustCompile(`le="([^"]*)"`)
)

// validateExposition is the grammar check the CI smoke step mirrors:
// every line is a well-formed TYPE declaration or sample, every sample
// belongs to the most recent TYPE family, histogram buckets are
// cumulative and end in le="+Inf" matching _count, and families appear
// in sorted order exactly once.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	var families []string
	curFamily, curKind := "", ""
	bucketCum := map[string]float64{} // label-block → last cumulative
	bucketLast := map[string]float64{}
	counts := map[string]map[string]float64{}     // family → labels → _count
	infBuckets := map[string]map[string]float64{} // family → labels → +Inf bucket
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if m := typeRe.FindStringSubmatch(line); m != nil {
			families = append(families, m[1])
			curFamily, curKind = m[1], m[2]
			bucketCum, bucketLast = map[string]float64{}, map[string]float64{}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line fails exposition grammar: %q", line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(strings.Replace(valStr, "Inf", "inf", 1), 64)
		if err != nil && valStr != "NaN" {
			t.Fatalf("unparsable sample value %q in %q", valStr, line)
		}
		switch curKind {
		case "counter", "gauge":
			if name != curFamily {
				t.Fatalf("sample %q outside its family %q", name, curFamily)
			}
			if curKind == "counter" && (val < 0 || math.IsNaN(val)) {
				t.Fatalf("counter sample negative or NaN: %q", line)
			}
		case "histogram":
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if base != curFamily {
				t.Fatalf("sample %q outside histogram family %q", name, curFamily)
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le := leRe.FindStringSubmatch(labels)
				if le == nil {
					t.Fatalf("bucket without le label: %q", line)
				}
				key := stripLe(labels)
				bound := math.Inf(1)
				if le[1] != "+Inf" {
					bound, err = strconv.ParseFloat(le[1], 64)
					if err != nil {
						t.Fatalf("unparsable le %q", le[1])
					}
				}
				if prev, ok := bucketLast[key]; ok && bound <= prev {
					t.Fatalf("bucket bounds not increasing at %q", line)
				}
				if val < bucketCum[key] {
					t.Fatalf("cumulative bucket counts decreased at %q", line)
				}
				bucketLast[key], bucketCum[key] = bound, val
				if math.IsInf(bound, 1) {
					if infBuckets[curFamily] == nil {
						infBuckets[curFamily] = map[string]float64{}
					}
					infBuckets[curFamily][key] = val
				}
			case strings.HasSuffix(name, "_count"):
				if counts[curFamily] == nil {
					counts[curFamily] = map[string]float64{}
				}
				counts[curFamily][labels] = val
			}
		default:
			t.Fatalf("sample before any # TYPE: %q", line)
		}
	}
	if !sortedUnique(families) {
		t.Fatalf("families not sorted/unique: %v", families)
	}
	for fam, byLabels := range counts {
		for labels, n := range byLabels {
			if inf, ok := infBuckets[fam][labels]; !ok || inf != n {
				t.Fatalf("family %s%s: _count %v does not match +Inf bucket %v", fam, labels, n, infBuckets[fam][labels])
			}
		}
	}
}

// stripLe removes the le pair from a label block so bucket series key
// on the same signature as their family's _sum/_count lines.
func stripLe(labels string) string {
	s := leRe.ReplaceAllString(labels, "")
	s = strings.ReplaceAll(s, "{,", "{")
	s = strings.ReplaceAll(s, ",}", "}")
	s = strings.ReplaceAll(s, ",,", ",")
	if s == "{}" {
		return ""
	}
	return s
}

func sortedUnique(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

func TestWritePassesGrammar(t *testing.T) {
	validateExposition(t, render(t, goldenRegistry()))
}

func TestWriteLargeRegistryPassesGrammar(t *testing.T) {
	reg := obs.NewRegistry()
	for _, plat := range []string{"EMR2S", "SPR2S", "SKX8S"} {
		for _, cfg := range []string{"Local", "CXL-A", "CXL-B+NUMA", `odd"cfg\n`} {
			h := reg.Histogram("device/" + plat + "/" + cfg + "/latency_ns")
			for v := 1.0; v < 1e6; v *= 3 {
				h.Record(v)
			}
			reg.Counter("device/" + plat + "/" + cfg + "/reads").Add(uint64(len(cfg)))
		}
	}
	reg.Gauge("weird name/with spaces").Set(1.25)
	reg.Counter("1leading/digit").Inc()
	validateExposition(t, render(t, reg))
}

func TestLabelEscaping(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(`device/P"l\at` + "\n" + `form/c"fg/reads`).Add(1)
	out := render(t, reg)
	want := `melody_device_reads_total{platform="P\"l\\at\nform",config="c\"fg"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped labels missing:\n%s\nwant line: %s", out, want)
	}
	validateExposition(t, out)
}

func TestNameSanitization(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("spa/BOUND-ON.LOADS").Inc()
	out := render(t, reg)
	if !strings.Contains(out, "melody_spa_BOUND_ON_LOADS_total 1") {
		t.Fatalf("sanitized counter missing:\n%s", out)
	}
}

// TestExplicitlyLabeledPaths pins the "name|k=v" rule the serve
// middleware's RED metrics ride: one family per metric, route/class
// as labels, label order preserved, slashes legal inside values.
func TestExplicitlyLabeledPaths(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("http/requests|route=/runs/{id}|class=2xx").Add(4)
	reg.Counter("http/requests|route=/runs/{id}|class=4xx").Inc()
	reg.Counter("http/requests|route=/metrics|class=2xx").Add(9)
	reg.Histogram("http/request_seconds|route=/metrics").Record(0.012)
	reg.Counter("jobs/finished|state=done").Add(2)
	out := render(t, reg)
	for _, want := range []string{
		`melody_http_requests_total{route="/runs/{id}",class="2xx"} 4`,
		`melody_http_requests_total{route="/runs/{id}",class="4xx"} 1`,
		`melody_http_requests_total{route="/metrics",class="2xx"} 9`,
		`melody_http_request_seconds_count{route="/metrics"} 1`,
		`melody_jobs_finished_total{state="done"} 2`,
		"# TYPE melody_http_requests_total counter",
		"# TYPE melody_http_request_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled-path exposition missing %q:\n%s", want, out)
		}
	}
	validateExposition(t, out)
}

// TestLabeledPathWithoutEquals keeps a malformed label segment visible
// instead of dropping it.
func TestLabeledPathWithoutEquals(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("http/requests|oops").Inc()
	out := render(t, reg)
	if !strings.Contains(out, `melody_http_requests_total{label="oops"} 1`) {
		t.Fatalf("malformed label segment lost:\n%s", out)
	}
	validateExposition(t, out)
}

func TestMixedKindCollisionRejected(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("x/y").Set(1)
	// Histogram at the same sanitized family name as the gauge.
	reg.Histogram("x/y").Record(1)
	var buf bytes.Buffer
	if err := Write(&buf, "melody", reg.Export(), FormatText); err == nil {
		t.Fatal("mixed-kind family collision not rejected")
	}
}

func TestEmptyExport(t *testing.T) {
	if out := render(t, obs.NewRegistry()); out != "" {
		t.Fatalf("empty registry rendered %q", out)
	}
}
