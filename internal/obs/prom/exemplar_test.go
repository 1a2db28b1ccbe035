package prom

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// exemplarLine matches a bucket sample with an OpenMetrics exemplar
// clause: name{labels} count # {trace_id="hex"} value [timestamp].
var exemplarLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*\{[^}]*le="[^"]+"\} \d+ # \{trace_id="[0-9a-f]+"\} \S+( \d+\.\d+)?$`)

// exemplarRegistry holds one histogram with one annotated bucket.
func exemplarRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	h := reg.Histogram("http/request_seconds|route=/runs")
	h.Record(0.001)
	h.RecordExemplar(0.25, "4bf92f3577b34da6a3ce929d0e0e4736")
	return reg
}

func renderFormat(t *testing.T, reg *obs.Registry, f Format) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, "melody_observatory", reg.Export(), f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteOpenMetricsExemplars(t *testing.T) {
	out := renderFormat(t, exemplarRegistry(), FormatOpenMetrics)

	var hits int
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.Contains(line, " # {") {
			continue
		}
		hits++
		if !exemplarLine.MatchString(line) {
			t.Errorf("malformed exemplar line: %q", line)
		}
		if !strings.Contains(line, `trace_id="4bf92f3577b34da6a3ce929d0e0e4736"`) {
			t.Errorf("exemplar carries wrong trace id: %q", line)
		}
	}
	if hits != 1 {
		t.Fatalf("found %d exemplar lines, want exactly 1 (only the annotated bucket):\n%s", hits, out)
	}
	// Exemplars attach to bucket lines only, never _sum/_count.
	for _, suffix := range []string{"_sum", "_count"} {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, suffix) && strings.Contains(line, "#") {
				t.Errorf("exemplar leaked onto %s line: %q", suffix, line)
			}
		}
	}
}

// TestClassicFormatOmitsExemplars pins the reviewer-facing contract:
// the 0.0.4 grammar ends a sample at its value, so the classic writer
// must drop exemplars entirely — a recorded exemplar changes nothing
// about a plain scrape.
func TestClassicFormatOmitsExemplars(t *testing.T) {
	reg := exemplarRegistry()
	out := renderFormat(t, reg, FormatText)
	if strings.Contains(out, "#") && strings.Contains(out, "trace_id") {
		t.Fatalf("exemplar syntax in 0.0.4 output:\n%s", out)
	}
	validateExposition(t, out)
}

// TestOpenMetricsCounterTypeNaming: OpenMetrics names counter families
// bare in # TYPE while sample lines keep the _total suffix; the
// classic format keeps _total in both.
func TestOpenMetricsCounterTypeNaming(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("runner/cache_hit").Add(7)
	om := renderFormat(t, reg, FormatOpenMetrics)
	for _, want := range []string{
		"# TYPE melody_observatory_runner_cache_hit counter\n",
		"melody_observatory_runner_cache_hit_total 7\n",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, om)
		}
	}
	if strings.Contains(om, "# TYPE melody_observatory_runner_cache_hit_total") {
		t.Errorf("OpenMetrics # TYPE kept the _total suffix:\n%s", om)
	}
	classic := renderFormat(t, reg, FormatText)
	if !strings.Contains(classic, "# TYPE melody_observatory_runner_cache_hit_total counter\n") {
		t.Errorf("classic # TYPE lost the _total suffix:\n%s", classic)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   Format
	}{
		{"", FormatText},
		{"text/plain", FormatText},
		{"text/plain; version=0.0.4", FormatText},
		{"*/*", FormatText}, // wildcard never opts into OpenMetrics
		{"application/openmetrics-text", FormatOpenMetrics},
		{"application/openmetrics-text; version=1.0.0; charset=utf-8", FormatOpenMetrics},
		// The Prometheus scraper's real header: OpenMetrics preferred.
		{"application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5", FormatOpenMetrics},
		{"Application/OpenMetrics-Text", FormatOpenMetrics},
		// Explicit refusal stays classic.
		{"application/openmetrics-text;q=0", FormatText},
		{"application/openmetrics-text;q=0.0, text/plain", FormatText},
	}
	for _, c := range cases {
		got, ctype := Negotiate(c.accept)
		if got != c.want {
			t.Errorf("Negotiate(%q) = %v, want %v", c.accept, got, c.want)
		}
		wantType := ContentType
		if c.want == FormatOpenMetrics {
			wantType = OpenMetricsContentType
		}
		if ctype != wantType {
			t.Errorf("Negotiate(%q) content type = %q, want %q", c.accept, ctype, wantType)
		}
	}
}

func TestWriteEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEOF(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Fatalf("WriteEOF wrote %q", buf.String())
	}
}

func TestExemplarSuffixRendering(t *testing.T) {
	if got := exemplarSuffix(nil); got != "" {
		t.Fatalf("nil exemplar rendered %q", got)
	}
	if got := exemplarSuffix(&obs.Exemplar{Value: 1, TraceID: ""}); got != "" {
		t.Fatalf("trace-less exemplar rendered %q", got)
	}
	e := &obs.Exemplar{Value: 0.25, TraceID: "abcd", Time: time.Unix(1700000000, 250_000_000)}
	want := ` # {trace_id="abcd"} 0.25 1700000000.250`
	if got := exemplarSuffix(e); got != want {
		t.Fatalf("exemplarSuffix = %q, want %q", got, want)
	}
	// No timestamp when the exemplar has no time.
	e.Time = time.Time{}
	if got := exemplarSuffix(e); got != ` # {trace_id="abcd"} 0.25` {
		t.Fatalf("timeless exemplarSuffix = %q", got)
	}
}

func TestGoldenUnchangedWithoutExemplars(t *testing.T) {
	// A registry that never calls RecordExemplar renders byte-identically
	// to the pre-exemplar format in either dialect's sample lines — no
	// exemplar syntax appears unless a trace-annotated sample exists AND
	// the client negotiated OpenMetrics.
	for _, f := range []Format{FormatText, FormatOpenMetrics} {
		if out := renderFormat(t, goldenRegistry(), f); strings.Contains(out, "trace_id") {
			t.Fatalf("format %v: exemplar syntax appeared without any RecordExemplar call", f)
		}
	}
}
