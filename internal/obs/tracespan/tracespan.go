// Package tracespan is melody's one span recorder: a stdlib-only
// Span/Tracer API with W3C traceparent propagation, a context-carried
// parent chain, and a bounded in-memory trace store (store.go)
// queryable over the observatory's /traces endpoints. Perfetto's
// -trace file is an export of the same spans: a tracer with a mirror
// renders each completed span into an obs.Trace, which adds nothing
// of its own but the sampler's counter tracks.
//
// One HTTP exchange yields one trace whose span tree threads
//
//	http → queue → exec → run → experiment → cell
//
// across the serve middleware, the job manager, melody.Execute, the
// Engine and the Runner. The trace id arrives on (or is minted for)
// each request, survives the queue hand-off, and is the join key
// everywhere else: the access log's trace_id field, the X-Trace-Id
// response header, and the OpenMetrics exemplars on the RED latency
// histograms — alert → bucket → trace → cell, four clicks. A run with
// no request span but a -trace file roots run → experiment → cell on
// a store-less tracer that only mirrors.
//
// Tracing is strictly observational and strictly optional. The
// disabled path is allocation-free: SpanFrom on a span-less context
// returns nil, and every method on a nil *Span or nil *Tracer is a
// no-op, so instrumented call sites need one nil check and nothing
// else. Cell spans are recorded post-completion from timings the
// caller already took, so the simulated hot path never sees the
// tracer and manifests are byte-identical with tracing on or off —
// the same contract the obs device observers established.
package tracespan

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// TraceID identifies one request's whole span tree (16 bytes, rendered
// as 32 lowercase hex characters — the W3C trace-id field).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID identifies one span within a trace (8 bytes, 16 hex chars —
// the W3C parent-id field).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the id as 16 hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext is the propagatable part of a span: enough to parent a
// child in another component (or another process, via traceparent).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set — everything this tracer records is
// sampled; retention is the store's job, not the producer's).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value:
// version "-" trace-id "-" parent-id "-" flags, all lowercase hex.
// Unknown versions are accepted per spec (the four known fields still
// lead, and trailing "-..." data is tolerated); version 00 must be
// exactly 55 characters — the spec permits trailing data only for
// future versions. All-zero ids, bad lengths and non-hex bytes are
// errors.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, fmt.Errorf("tracespan: traceparent too short (%d chars)", len(h))
	}
	if len(h) > 55 && h[55] != '-' {
		return sc, fmt.Errorf("tracespan: malformed traceparent %q", h)
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("tracespan: malformed traceparent %q", h)
	}
	ver := h[:2]
	if !isHex(ver) || ver == "ff" {
		return sc, fmt.Errorf("tracespan: bad traceparent version %q", ver)
	}
	if ver == "00" && len(h) != 55 {
		return sc, fmt.Errorf("tracespan: version-00 traceparent must be exactly 55 chars, got %d", len(h))
	}
	if !isHex(h[3:35]) {
		return sc, fmt.Errorf("tracespan: bad trace-id %q (want 32 lowercase hex chars)", h[3:35])
	}
	if !isHex(h[36:52]) {
		return sc, fmt.Errorf("tracespan: bad parent-id %q (want 16 lowercase hex chars)", h[36:52])
	}
	hex.Decode(sc.Trace[:], []byte(h[3:35]))
	hex.Decode(sc.Span[:], []byte(h[36:52]))
	if !isHex(h[53:55]) {
		return sc, fmt.Errorf("tracespan: bad traceparent flags %q", h[53:55])
	}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("tracespan: all-zero id in traceparent %q", h)
	}
	return sc, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Attr is one span attribute. Values are strings: span attrs exist to
// correlate (ids, names, outcomes), not to aggregate — numbers belong
// in the metrics registry.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds an Attr (the obvious constructor, named for symmetry
// with log/slog).
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Span statuses. A span is OK unless something marked it failed.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// SpanData is one completed span as stored and served: the /traces
// JSON shape. Attrs keep recording order.
type SpanData struct {
	TraceID   string    `json:"trace_id"`
	SpanID    string    `json:"span_id"`
	ParentID  string    `json:"parent_id,omitempty"`
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	DurationS float64   `json:"duration_s"`
	Status    string    `json:"status"`
	Error     string    `json:"error,omitempty"`
	Attrs     []Attr    `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" if absent).
func (sd SpanData) Attr(key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Tracer mints spans and delivers completed ones to its Store, and,
// when a mirror is set, to an obs.Trace for Perfetto. A nil *Tracer is
// fully inert.
type Tracer struct {
	store *Store

	mu        sync.Mutex
	mirror    *obs.Trace
	mirrorPid int
}

// NewTracer returns a tracer recording into store. A nil store makes a
// mirror-only tracer: its spans reach nothing until SetMirror names a
// trace to render them into.
func NewTracer(store *Store) *Tracer {
	return &Tracer{store: store}
}

// Store returns the tracer's span store (nil for a mirror-only tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// SetMirror additionally renders every completed span into tr under
// pid, via obs.Trace.CompleteAt. Each span's category is its name, and
// a span with a "worker" attribute goes on that worker's thread track
// (others on track 0), so a runner's cells show per-worker occupancy.
// The caller names the pid's process row. A nil tr clears the mirror.
func (t *Tracer) SetMirror(tr *obs.Trace, pid int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mirror = tr
	t.mirrorPid = pid
	t.mu.Unlock()
}

// newIDs mints a fresh span id (and, when trace is zero, a fresh trace
// id) from crypto/rand, like svclog request ids: uniqueness matters,
// determinism explicitly does not — ids never reach manifests.
func newSpanID() SpanID {
	var id SpanID
	if _, err := rand.Read(id[:]); err != nil || id.IsZero() {
		id = SpanID{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}
	}
	return id
}

func newTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil || id.IsZero() {
		id[0] = 0xde
	}
	return id
}

// Span is one in-flight operation. Spans are created by a Tracer
// (StartRoot/StartChild) or from a parent in the context (Start); a
// nil *Span no-ops every method, which is the entire disabled path.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	errMsg string
	failed bool
	ended  bool
}

// StartRoot begins a trace-root span. When parent is valid — an
// upstream traceparent arrived — the new span continues that trace as
// a child of the remote span; otherwise a fresh trace id is minted.
// The returned context carries the span for Start/SpanFrom below.
func (t *Tracer) StartRoot(ctx context.Context, name string, parent SpanContext, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sc := SpanContext{Trace: parent.Trace, Span: newSpanID()}
	var parentID SpanID
	if parent.Valid() {
		parentID = parent.Span
	} else {
		sc.Trace = newTraceID()
	}
	s := &Span{tracer: t, sc: sc, parent: parentID, name: name, start: time.Now(), attrs: attrs}
	return WithSpan(ctx, s), s
}

// StartChild begins a live span under an explicit parent context —
// the hand-off shape for work that outlives the goroutine (and span)
// that submitted it, like a queued job whose HTTP span ended at 202.
// An invalid parent yields a no-op span: work that was never traced
// stays untraced.
func (t *Tracer) StartChild(ctx context.Context, parent SpanContext, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil || !parent.Valid() {
		return ctx, nil
	}
	s := &Span{
		tracer: t,
		sc:     SpanContext{Trace: parent.Trace, Span: newSpanID()},
		parent: parent.Span,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	return WithSpan(ctx, s), s
}

// Record stores an already-completed span under parent and returns its
// context, for post-hoc phases whose boundaries were measured by other
// means (a queue wait reconstructed from submit/start stamps). The
// zero SpanContext is returned — and nothing recorded — when the
// tracer is nil or parent is invalid.
func (t *Tracer) Record(parent SpanContext, name string, start, end time.Time, attrs ...Attr) SpanContext {
	if t == nil || !parent.Valid() {
		return SpanContext{}
	}
	sc := SpanContext{Trace: parent.Trace, Span: newSpanID()}
	t.finish(SpanData{
		TraceID:   sc.Trace.String(),
		SpanID:    sc.Span.String(),
		ParentID:  parent.Span.String(),
		Name:      name,
		Start:     start,
		End:       end,
		DurationS: end.Sub(start).Seconds(),
		Status:    StatusOK,
		Attrs:     attrs,
	})
	return sc
}

// finish delivers one completed span to the store and the mirror.
func (t *Tracer) finish(sd SpanData) {
	if t.store != nil {
		t.store.Add(sd)
	}
	t.mu.Lock()
	mirror, pid := t.mirror, t.mirrorPid
	t.mu.Unlock()
	if mirror == nil {
		return
	}
	args := map[string]any{"trace_id": sd.TraceID, "span_id": sd.SpanID, "status": sd.Status}
	tid := 0
	for _, a := range sd.Attrs {
		args[a.Key] = a.Value
		if a.Key == "worker" {
			// The Runner writes worker indices with fmt.Sprint; a value
			// that does not parse leaves the span on track 0.
			tid, _ = strconv.Atoi(a.Value)
		}
	}
	mirror.CompleteAt(pid, tid, sd.Name, sd.Name, sd.Start, sd.End, args)
}

// Tracer returns the span's tracer (nil for a nil span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Context returns the span's propagatable context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace id as hex ("" for nil) — the value
// access logs, response headers and exemplars carry.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.Trace.String()
}

// SetAttr attaches one key-value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	s.mu.Unlock()
}

// SetError marks the span failed with msg; the store's tail-biased
// retention pins errored traces.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.failed = true
	s.errMsg = msg
	s.mu.Unlock()
}

// End completes the span and delivers it. Idempotent: only the first
// End records.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	status, errMsg := StatusOK, ""
	if s.failed {
		status, errMsg = StatusError, s.errMsg
	}
	attrs := s.attrs
	s.mu.Unlock()
	var parentID string
	if !s.parent.IsZero() {
		parentID = s.parent.String()
	}
	s.tracer.finish(SpanData{
		TraceID:   s.sc.Trace.String(),
		SpanID:    s.sc.Span.String(),
		ParentID:  parentID,
		Name:      s.name,
		Start:     s.start,
		End:       end,
		DurationS: end.Sub(s.start).Seconds(),
		Status:    status,
		Error:     errMsg,
		Attrs:     attrs,
	})
}

// Child records an already-completed child of s — the post-completion
// recording shape the Runner uses for cell spans: the caller measures
// (it had to anyway), then reports, so the hot path never touches the
// tracer and the nil path allocates nothing.
func (s *Span) Child(name string, start, end time.Time, attrs ...Attr) SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.tracer.Record(s.sc, name, start, end, attrs...)
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// WithSpan returns ctx carrying s as the active span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom returns the active span carried by ctx (nil if none). The
// lookup itself does not allocate, which is what keeps the disabled
// hot path free.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextFrom returns the active span's SpanContext (zero if none) —
// the capture shape for hand-offs across queue boundaries.
func ContextFrom(ctx context.Context) SpanContext {
	return SpanFrom(ctx).Context()
}

// Start begins a live child of the context's active span. With no
// active span it returns (ctx, nil): the whole call tree below an
// untraced entry point stays no-op without any plumbing.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	cctx, s := parent.tracer.StartChild(ctx, parent.sc, name, attrs...)
	return cctx, s
}

// Node is one span plus its children — the /traces/{id} tree shape.
type Node struct {
	SpanData
	Children []*Node `json:"children,omitempty"`
}

// BuildTree assembles completed spans into parent→child trees. Spans
// whose parent is absent (the root proper, spans continued from a
// remote traceparent, or children whose parent was dropped) become
// roots. Siblings sort by start time, then name, so the tree is
// deterministic for a given span set.
func BuildTree(spans []SpanData) []*Node {
	nodes := make(map[string]*Node, len(spans))
	for _, sd := range spans {
		nodes[sd.SpanID] = &Node{SpanData: sd}
	}
	var roots []*Node
	for _, sd := range spans {
		n := nodes[sd.SpanID]
		if p, ok := nodes[sd.ParentID]; ok && sd.ParentID != sd.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*Node)
	sortNodes = func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].Name < ns[j].Name
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}
