package serve

// The /traces endpoints: the query surface over the tracespan store.
// GET /traces lists retained traces newest-first, filterable so an
// operator can go straight from an alert to the offenders:
//
//	?min_duration_s=0.5   only traces at least this long
//	?status=error         only errored (or ?status=ok) traces
//	?spec_hash=sha256:…   only traces touching one spec
//	?limit=20             at most this many rows
//
// GET /traces/{id} returns one trace: its summary plus the full span
// tree (children nested, siblings in start order), the payload the CI
// smoke walks to assert http → queue → exec → run → experiment → cell
// stayed connected.

import (
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs/tracespan"
)

func (s *Server) traceList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f tracespan.Filter
	var sec float64
	if !queryNum(w, r, "min_duration_s", &sec, 0, "a non-negative number of seconds") {
		return
	}
	// A bound past time.Duration's range would wrap negative and match
	// every trace; the longest Duration matches none.
	f.MinDuration = time.Duration(math.MaxInt64)
	if ns := sec * float64(time.Second); ns < math.MaxInt64 {
		f.MinDuration = time.Duration(ns)
	}
	switch v := q.Get("status"); v {
	case "", tracespan.StatusOK, tracespan.StatusError:
		f.Status = v
	default:
		http.Error(w, `bad status: want "ok" or "error"`, http.StatusBadRequest)
		return
	}
	f.SpecHash = q.Get("spec_hash")
	if !queryNum(w, r, "limit", &f.Limit, 0, "a non-negative integer") {
		return
	}
	store := s.tracer.Store()
	writeJSON(w, map[string]any{
		"traces": store.List(f),
		"stats":  store.Stats(),
	})
}

func (s *Server) traceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sum, spans, ok := s.tracer.Store().Get(id)
	if !ok {
		http.Error(w, "unknown trace id (never seen, or evicted by retention)", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{
		"summary": sum,
		"tree":    tracespan.BuildTree(spans),
	})
}

// buildInfo digests runtime/debug.ReadBuildInfo into the fields health
// probes report: enough to pin which binary answered, cheap enough to
// compute once and serve forever.
var buildInfo = sync.OnceValue(func() map[string]string {
	info := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["go_version"] = bi.GoVersion
	if bi.Main.Path != "" {
		info["module"] = bi.Main.Path
	}
	if bi.Main.Version != "" {
		info["module_version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			info["vcs_revision"] = kv.Value
		case "vcs.time":
			info["vcs_time"] = kv.Value
		case "vcs.modified":
			info["vcs_modified"] = kv.Value
		}
	}
	return info
})
