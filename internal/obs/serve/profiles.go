package serve

// The /profiles endpoints: the query surface over the continuous host
// profiler's capture store (internal/obs/hostprof). The shape mirrors
// /traces — list with filters, fetch one by id — plus a heap-delta view
// that turns two heap snapshots into a ranked per-stack growth report:
//
//	GET /profiles                      list captures newest-first
//	    ?type=cpu|heap|goroutine|mutex|block
//	    ?reason=interval|job_start|watchdog:<signal>
//	    ?job_id=run-000042             captures overlapping one job
//	    ?limit=20
//	GET /profiles/{id}                 raw .pb.gz — pipe straight into
//	                                   `go tool pprof`
//	GET /profiles/heapdelta?from=&to=  per-stack heap growth between two
//	                                   heap captures (?rows= caps rows)
//
// Opt-in live profiling rides the same mux: with Server.DebugPprof set,
// the standard /debug/pprof/* handlers mount on the observatory — one
// address, one middleware stack, instead of the second listener the
// -pprof flag historically required.

import (
	"fmt"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"

	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/profile"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// AttachProfiler mounts p's capture store as the /profiles API and
// routes job-started events into immediate CPU captures (call before
// Handler/Start). Start runs p's loop; Running.Close stops it.
func (s *Server) AttachProfiler(p *hostprof.Profiler) { s.prof = p }

// Profiler returns the attached profiler (nil when profiling is off).
func (s *Server) Profiler() *hostprof.Profiler { return s.prof }

// profileList is GET /profiles.
func (s *Server) profileList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := hostprof.Filter{
		Type:   q.Get("type"),
		Reason: q.Get("reason"),
		JobID:  q.Get("job_id"),
	}
	if !queryNum(w, r, "limit", &f.Limit, 0, "a non-negative integer") {
		return
	}
	store := s.prof.Store()
	writeJSON(w, map[string]any{
		"profiles":   store.List(f),
		"stats":      store.Stats(),
		"interval_s": s.prof.Interval().Seconds(),
	})
}

// profileGet is GET /profiles/{id}: the raw gzipped profile.proto
// payload, exactly what `go tool pprof` consumes.
func (s *Server) profileGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := s.prof.Store().Get(id)
	if !ok {
		http.Error(w, "unknown profile id (never captured, or evicted by retention)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s.pb.gz", c.Type, c.ID))
	w.Header().Set("Content-Length", strconv.Itoa(len(c.Bytes)))
	w.Write(c.Bytes)
}

// profileHeapDelta is GET /profiles/heapdelta?from={id}&to={id}: the
// per-stack allocation change between two retained heap captures — the
// view that turns a "sustained heap growth" watchdog alert into the
// allocation site responsible, without leaving the observatory.
func (s *Server) profileHeapDelta(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fromID, toID := q.Get("from"), q.Get("to")
	if fromID == "" || toID == "" {
		http.Error(w, "want ?from={profile id}&to={profile id}, both heap captures", http.StatusBadRequest)
		return
	}
	rows := 0
	if !queryNum(w, r, "rows", &rows, 1, "a positive integer") {
		return
	}
	load := func(id string) (*profile.Parsed, *hostprof.Capture, error) {
		c, ok := s.prof.Store().Get(id)
		if !ok {
			return nil, nil, fmt.Errorf("unknown profile id %q", id)
		}
		if c.Type != hostprof.TypeHeap {
			return nil, nil, fmt.Errorf("profile %s is a %s capture, want heap", id, c.Type)
		}
		p, err := hostprof.Parse(c.Bytes)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: %v", id, err)
		}
		return p, &c, nil
	}
	from, fromCap, err := load(fromID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	to, toCap, err := load(toID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	delta, err := hostprof.DiffHeap(from, to, rows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{
		"from":   fromCap,
		"to":     toCap,
		"span_s": toCap.End.Sub(fromCap.End).Seconds(),
		"delta":  delta,
	})
}

// pprofHandlers are the standard net/http/pprof handlers, served on
// the observatory mux with Server.DebugPprof or on their own listener
// with StartDebugPprof.
var pprofHandlers = []struct {
	path string
	h    http.HandlerFunc
}{
	{"/debug/pprof/", httppprof.Index},
	{"/debug/pprof/cmdline", httppprof.Cmdline},
	{"/debug/pprof/profile", httppprof.Profile},
	{"/debug/pprof/symbol", httppprof.Symbol},
	{"/debug/pprof/trace", httppprof.Trace},
}

// StartDebugPprof serves the standard /debug/pprof/* handlers on their
// own addr — the historical -pprof contract, shared by both the run and
// serve subcommands so the flag cannot drift between them again.
// Listening is synchronous: a bad address fails here, at startup, not
// minutes into a run. Prefer Server.DebugPprof (same handlers on the
// observatory mux) when an observatory is already listening.
func StartDebugPprof(addr string, log *slog.Logger) (*Running, error) {
	if log == nil {
		log = svclog.Discard()
	}
	mux := http.NewServeMux()
	for _, p := range pprofHandlers {
		mux.Handle(p.path, p.h)
	}
	run, err := listen(addr, "pprof", mux, log)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	return run, nil
}
