package obs

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; nil receivers are no-ops, so disabled telemetry costs a
// nil check and nothing else.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float. Nil receivers are no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Non-finite values (NaN, ±Inf) are ignored — the gauge
// keeps its last finite value — so one bad computation cannot make the
// registry's JSON export unmarshalable.
func (g *Gauge) Set(v float64) {
	if g != nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named counters, gauges and histograms. Get-or-create
// lookups and the JSON dump are safe for concurrent use; instruments
// returned by one lookup stay valid (and identical) for the registry's
// lifetime, so hot paths should look up once and keep the pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
// A nil registry returns nil (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// A nil registry returns nil; Merge onto a nil histogram is a no-op,
// but Record is not nil-safe — hot paths hold pre-created histograms.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Export is the one read of a registry: the run manifest's registry
// section, the /metrics exposition (obs/prom) and melodydiff all take
// it. Map keys marshal in sorted order and a histogram marshals as its
// Summary, so the JSON is deterministic for a given state.
type Export struct {
	Counters   map[string]uint64          `json:"counters"`
	Gauges     map[string]float64         `json:"gauges"`
	Histograms map[string]HistogramExport `json:"histograms"`
}

// Export captures every instrument; a nil registry has none. It holds
// the registry lock only to copy the instrument maps; values are read
// afterwards from the instruments' own atomics/locks, so an export
// taken mid-run never blocks recording for longer than one
// instrument's critical section.
func (r *Registry) Export() Export {
	ex := Export{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramExport{},
	}
	if r == nil {
		return ex
	}
	r.mu.Lock()
	counters, gauges, hists := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.hists)
	r.mu.Unlock()
	for k, v := range counters {
		ex.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		ex.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		ex.Histograms[k] = v.Export()
	}
	return ex
}
