package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"
)

// chromeTraceFile is the strict schema of the Chrome trace-event JSON
// object format — what Perfetto's legacy-trace importer accepts. The
// schema test below is the acceptance gate: every emitted trace must
// unmarshal into this shape with valid phases and timestamps.
type chromeTraceFile struct {
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

type chromeTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

// validateChromeTrace asserts raw is a loadable Chrome trace-event file.
func validateChromeTrace(t *testing.T, raw []byte) chromeTraceFile {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	var f chromeTraceFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if f.TraceEvents == nil {
		t.Fatal("trace has no traceEvents array")
	}
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || *e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("complete event %d has invalid ts/dur", i)
			}
		case "M":
			// metadata events need name+args only
		case "C":
			// counter-track samples: explicit ts plus a numeric value arg.
			if e.Ts == nil || *e.Ts < 0 {
				t.Fatalf("counter event %d has invalid ts", i)
			}
			if _, ok := e.Args["value"].(float64); !ok {
				t.Fatalf("counter event %d has no numeric value arg", i)
			}
		default:
			t.Fatalf("event %d has unsupported phase %q", i, e.Ph)
		}
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing pid/tid", i)
		}
		if e.Ph == "M" {
			if s, ok := e.Args["name"].(string); !ok || s == "" {
				t.Fatalf("metadata event %d has no name arg", i)
			}
		}
	}
	return f
}

func TestTraceSchemaValid(t *testing.T) {
	tr := NewTrace()
	tr.SetProcessName(1, "melody engine")
	tr.SetProcessName(100, "samples: 605.mcf_s @ CXL-A")
	t0 := time.Now()
	tr.CompleteAt(1, 3, "cell", "cell", t0, t0.Add(2*time.Millisecond),
		map[string]any{"outcome": "computed", "worker": "3"})
	tr.CompleteAt(1, 0, "experiment", "experiment", t0, t0.Add(5*time.Millisecond),
		map[string]any{"experiment": "fig8a"})
	tr.CounterAt(100, "spa/BoundOnLoads", tr.StampUs(t0), 4200)

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	f := validateChromeTrace(t, raw)
	// 2 metadata + 2 spans + 1 counter sample.
	if len(f.TraceEvents) != 5 {
		t.Fatalf("trace has %d events, want 5", len(f.TraceEvents))
	}
	if d := f.TraceEvents[3].Dur; d < 4999 || d > 5001 {
		t.Fatalf("experiment span lasts %v µs, want 5000", d)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}

// TestTraceCounterTrackSchema pins the counter-track encoding: ph "C",
// caller-supplied timestamps, args{"value": v}, one track per name per
// pid — the shape Perfetto renders as plotted counter series.
func TestTraceCounterTrackSchema(t *testing.T) {
	tr := NewTrace()
	tr.SetProcessName(3, "samples: 605.mcf_s @ CXL-A")
	tr.CounterAt(3, "spa/BoundOnLoads", 10.5, 4200)
	tr.CounterAt(3, "spa/BoundOnLoads", 20.5, 3900)
	tr.CounterAt(3, "cpmu/queue_depth", 10.5, 7)
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	f := validateChromeTrace(t, raw)
	// 1 metadata + 3 counter samples.
	if len(f.TraceEvents) != 4 {
		t.Fatalf("trace has %d events, want 4", len(f.TraceEvents))
	}
	counts := map[string]int{}
	for _, e := range f.TraceEvents[1:] {
		if e.Ph != "C" {
			t.Fatalf("sample has phase %q, want C", e.Ph)
		}
		if *e.Pid != 3 {
			t.Fatalf("sample on pid %d, want 3", *e.Pid)
		}
		counts[e.Name]++
	}
	if counts["spa/BoundOnLoads"] != 2 || counts["cpmu/queue_depth"] != 1 {
		t.Fatalf("track sample counts wrong: %v", counts)
	}
	// Explicit timestamps are preserved verbatim.
	if ts := *f.TraceEvents[1].Ts; ts != 10.5 {
		t.Fatalf("counter ts %v, want 10.5", ts)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	now := time.Now()
	tr.CompleteAt(0, 0, "x", "y", now, now, map[string]any{"k": "v"})
	tr.CounterAt(0, "c", 1, 2)
	if tr.StampUs(now) != 0 {
		t.Fatal("nil trace stamped nonzero")
	}
	tr.SetProcessName(0, "p")
	if tr.Len() != 0 {
		t.Fatal("nil trace recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if f := validateChromeTrace(t, buf.Bytes()); len(f.TraceEvents) != 0 {
		t.Fatalf("nil trace marshals %d events", len(f.TraceEvents))
	}
}

// TestTraceSpanOrdering pins the emitted order: process names first,
// sorted by pid, then events in recording order, whatever their
// timestamps.
func TestTraceSpanOrdering(t *testing.T) {
	tr := NewTrace()
	tr.SetProcessName(2, "second")
	tr.SetProcessName(1, "first")
	t0 := time.Now()
	tr.CompleteAt(1, 1, "late", "", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond), nil)
	tr.CounterAt(2, "c", 0, 1)
	tr.CompleteAt(2, 0, "early", "", t0, t0.Add(time.Millisecond), nil)
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	f := validateChromeTrace(t, raw)
	var got []string
	for _, e := range f.TraceEvents {
		got = append(got, fmt.Sprintf("%s/%s@%d.%d", e.Ph, e.Name, *e.Pid, *e.Tid))
	}
	want := []string{"M/process_name@1.0", "M/process_name@2.0", "X/late@1.1", "C/c@2.0", "X/early@2.0"}
	if !slices.Equal(got, want) {
		t.Fatalf("event order %v, want %v", got, want)
	}
	if *f.TraceEvents[2].Ts <= *f.TraceEvents[4].Ts {
		t.Fatal("later span stamped no later than the earlier one")
	}
}
