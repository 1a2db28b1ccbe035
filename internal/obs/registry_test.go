package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned different counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name returned different gauges")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name returned different histograms")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("distinct names shared a counter")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	if r.Histogram("z") != nil {
		t.Fatal("nil registry returned a histogram")
	}
	NewHistogram().Merge(r.Histogram("z")) // merge of nil: no-op
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Record(float64(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z/count").Add(3)
	r.Counter("a/count").Add(1)
	r.Gauge("util").Set(0.5)
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("registry JSON not deterministic")
	}
	var parsed struct {
		Counters   map[string]uint64  `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]Summary `json:"histograms"`
	}
	if err := json.Unmarshal(a, &parsed); err != nil {
		t.Fatalf("registry JSON does not parse: %v", err)
	}
	if parsed.Counters["z/count"] != 3 || parsed.Counters["a/count"] != 1 {
		t.Fatalf("counters wrong: %v", parsed.Counters)
	}
	hs := parsed.Histograms["lat"]
	if hs.Count != 100 || hs.Min != 1 || hs.Max != 100 {
		t.Fatalf("histogram summary wrong: %+v", hs)
	}
}

func TestGaugeNonFiniteIgnored(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Set(math.NaN())
	g.Set(math.Inf(1))
	g.Set(math.Inf(-1))
	if v := g.Value(); v != 3.5 {
		t.Fatalf("gauge = %v, want last finite value 3.5", v)
	}
}
