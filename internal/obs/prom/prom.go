// Package prom renders an obs.Registry export in the Prometheus text
// exposition format (version 0.0.4) or in OpenMetrics 1.0, using the
// standard library only. It is the bridge between the simulator's
// telemetry and any scraping stack: `melody run -serve ADDR` mounts
// the output at GET /metrics, negotiating the dialect from the Accept
// header (Negotiate). Exemplars are OpenMetrics-only syntax — the
// classic 0.0.4 grammar permits nothing after the sample value — so
// they render only under FormatOpenMetrics; a 0.0.4 scrape of the same
// registry is byte-identical to the pre-exemplar output.
//
// Mapping rules, chosen so scraped series stay stable across runs:
//
//   - Registry paths become metric names under a caller-chosen
//     namespace: "runner/cache_hit" → "melody_runner_cache_hit_total".
//     Characters outside [a-zA-Z0-9_:] collapse to "_".
//   - Counters gain the conventional "_total" suffix; gauges and
//     histograms keep their sanitized path.
//   - Per-device paths "device/<platform>/<config>/<metric>" fold into
//     one family per metric with platform/config labels:
//     "device/EMR2S/CXL-B/latency_ns" →
//     melody_device_latency_ns{platform="EMR2S",config="CXL-B"}
//     so dashboards select configurations by label instead of by
//     pattern-matching metric names.
//   - Explicitly labeled paths "name|k=v|k=v" split at "|": the first
//     segment names the family, the rest become labels. The serve
//     middleware's RED metrics use this —
//     "http/requests|route=/progress|class=2xx" →
//     http_requests_total{route="/progress",class="2xx"} — because
//     route patterns contain "/" and so cannot ride the
//     segment-per-label device rule. Label order in the path is
//     preserved; label values escape but are otherwise verbatim.
//   - obs.Histogram exports map onto native Prometheus histograms:
//     cumulative `_bucket{le="..."}` series (only boundaries where the
//     cumulative count grows, plus the mandatory le="+Inf"), `_sum`,
//     and `_count`.
//
// Output is byte-deterministic for a given export: families sort by
// name, series within a family sort by label signature.
package prom

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/moatlab/melody/internal/obs"
)

// ContentType is the HTTP Content-Type for classic text output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the HTTP Content-Type for OpenMetrics
// output.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Format selects the exposition dialect Write emits.
type Format uint8

const (
	// FormatText is the classic Prometheus text format (0.0.4). Its
	// grammar ends a sample line at the value (plus optional
	// timestamp), so exemplars are omitted entirely.
	FormatText Format = iota
	// FormatOpenMetrics is OpenMetrics 1.0: counter # TYPE lines name
	// the family without the _total suffix (samples keep it), histogram
	// bucket lines carry their exemplar clause, and the stream must end
	// with the "# EOF" terminator — emitted once by the caller via
	// WriteEOF, since one exposition may concatenate several
	// Write calls.
	FormatOpenMetrics
)

// Negotiate picks the exposition format for an HTTP Accept header
// value: FormatOpenMetrics when the client lists
// application/openmetrics-text with non-zero quality (the Prometheus
// scraper sends exactly that when it wants exemplars), FormatText
// otherwise — including an absent header, so curl and pre-OpenMetrics
// scrapers keep getting plain 0.0.4. The second return is the
// Content-Type to respond with.
func Negotiate(accept string) (Format, string) {
	for _, part := range strings.Split(accept, ",") {
		mediaRange, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(mediaRange), "application/openmetrics-text") {
			continue
		}
		if qualityZero(params) {
			continue
		}
		return FormatOpenMetrics, OpenMetricsContentType
	}
	return FormatText, ContentType
}

// qualityZero reports whether a media-range's parameters carry an
// explicit q=0 (the client refusing the type it names).
func qualityZero(params string) bool {
	for _, p := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		return err == nil && q == 0
	}
	return false
}

// WriteEOF terminates an OpenMetrics exposition. OpenMetrics requires
// exactly one "# EOF" after the final family; callers emit it after
// their last Write call. Classic 0.0.4 output has no terminator
// and must not get one.
func WriteEOF(w io.Writer) error {
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// kind is a family's exposition type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels string // rendered label block, "" or `{k="v",...}`
	value  float64
	hist   obs.HistogramExport
}

// family is one # TYPE block: every series sharing a metric name.
type family struct {
	name   string
	kind   kind
	series []series
}

// Write renders ex under namespace (e.g. "melody") in the given
// dialect: FormatText for classic 0.0.4 output, FormatOpenMetrics for
// OpenMetrics 1.0 with exemplars (the caller appends WriteEOF after
// its last family). Families whose sanitized names collide across
// instrument kinds are rejected — mixed-type families are invalid
// exposition — so callers find naming clashes in tests, not in their
// scraper logs.
func Write(w io.Writer, namespace string, ex obs.Export, format Format) error {
	fams := map[string]*family{}
	add := func(path string, k kind, s series) error {
		name, labels := mapPath(namespace, path, k)
		s.labels = labels
		f, ok := fams[name]
		if !ok {
			f = &family{name: name, kind: k}
			fams[name] = f
		} else if f.kind != k {
			return fmt.Errorf("prom: family %q holds both %s and %s series", name, f.kind, k)
		}
		f.series = append(f.series, s)
		return nil
	}
	for path, v := range ex.Counters {
		if err := add(path, kindCounter, series{value: float64(v)}); err != nil {
			return err
		}
	}
	for path, v := range ex.Gauges {
		if err := add(path, kindGauge, series{value: v}); err != nil {
			return err
		}
	}
	for path, h := range ex.Histograms {
		if err := add(path, kindHistogram, series{hist: h}); err != nil {
			return err
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		typeName := f.name
		if format == FormatOpenMetrics && f.kind == kindCounter {
			// OpenMetrics names the counter family bare in # TYPE; only
			// the sample lines carry the _total suffix.
			typeName = strings.TrimSuffix(typeName, "_total")
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", typeName, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s, format); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries emits one labeled instance's sample lines.
func writeSeries(w io.Writer, f *family, s series, format Format) error {
	switch f.kind {
	case kindCounter, kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
		return err
	default:
		for _, b := range s.hist.Buckets {
			var exemplar string
			if format == FormatOpenMetrics {
				exemplar = exemplarSuffix(b.Exemplar)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
				f.name, withLabel(s.labels, "le", formatValue(b.UpperBound)), b.Count,
				exemplar); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, withLabel(s.labels, "le", "+Inf"), s.hist.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(s.hist.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.hist.Count)
		return err
	}
}

// exemplarSuffix renders one bucket exemplar as an OpenMetrics
// exemplar clause — ` # {trace_id="..."} value timestamp` — or "" when
// the bucket carries none. Exemplars exist only in the OpenMetrics
// grammar — the classic 0.0.4 format permits nothing after the sample
// value, and standard parsers fail the whole scrape on trailing
// tokens — so Write requests this suffix only under
// FormatOpenMetrics. The timestamp is Unix seconds with millisecond
// precision, omitted when the exemplar has no time.
func exemplarSuffix(e *obs.Exemplar) string {
	if e == nil || e.TraceID == "" {
		return ""
	}
	s := ` # {trace_id="` + escapeLabelValue(e.TraceID) + `"} ` + formatValue(e.Value)
	if !e.Time.IsZero() {
		s += " " + strconv.FormatFloat(float64(e.Time.UnixMilli())/1000, 'f', 3, 64)
	}
	return s
}

// mapPath turns a registry path into (family name, label block).
// Pipe-delimited paths carry their labels explicitly; device paths
// split into a shared family plus platform/config labels; everything
// else sanitizes whole.
func mapPath(namespace, path string, k kind) (string, string) {
	name, labels := path, ""
	if parts := strings.Split(path, "|"); len(parts) > 1 {
		name = parts[0]
		pairs := make([]string, 0, len(parts)-1)
		for _, p := range parts[1:] {
			key, value, ok := strings.Cut(p, "=")
			if !ok {
				// A label segment without "=" is a path bug; surface it
				// as a value under a stable key rather than dropping it.
				key, value = "label", p
			}
			pairs = append(pairs, label(key, value))
		}
		labels = "{" + strings.Join(pairs, ",") + "}"
	} else if parts := strings.Split(path, "/"); len(parts) == 4 && parts[0] == "device" {
		name = "device_" + parts[3]
		labels = "{" + label("platform", parts[1]) + "," + label("config", parts[2]) + "}"
	}
	name = namespace + "_" + sanitizeName(name)
	if k == kindCounter && !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	return name, labels
}

// withLabel appends k="v" to an existing label block.
func withLabel(block, k, v string) string {
	l := label(k, v)
	if block == "" {
		return "{" + l + "}"
	}
	return block[:len(block)-1] + "," + l + "}"
}

// label renders one escaped k="v" pair.
func label(k, v string) string {
	return sanitizeName(k) + `="` + escapeLabelValue(v) + `"`
}

// sanitizeName collapses characters illegal in metric/label names to
// "_" and guards against a leading digit.
func sanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue applies the exposition format's label escapes.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// formatValue renders a float the way Prometheus parsers expect.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
