package serve

// The cross-run surface: /compare and /baselines, plus the automatic
// diff-on-completion hook. Together they close the loop the CLI gate
// (melodydiff) only closes offline: a run finishes, the observatory
// diffs it against the pinned baseline for its experiment set, and a
// regression becomes a counter (melody_regressions_total), a
// structured log line and an SSE event — all without leaving the
// service.
//
//	GET  /compare?base=&head=      diff two stored runs. Operands are
//	                               run ids (run-000001) or spec hashes
//	                               (sha256:…); ?threshold= overrides
//	                               the noise gate. Accept:
//	                               application/json returns the
//	                               structured report, anything else the
//	                               human table.
//	GET  /baselines                list pinned baselines
//	POST /baselines                pin {"name": …, "spec_hash": …} or
//	                               {"name": …, "run_id": …}
//	DELETE /baselines/{name}       unpin
//
// /compare shares its library path (internal/melody/diff.Compare) with
// melodydiff, so the service and the CLI gate agree by construction on
// what counts as a regression.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/diff"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/obs/ledger"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// AttachLedger wires the durable run ledger into the observatory:
// /compare and /baselines mount on the mux, and every non-interrupted
// job completion is automatically diffed against the pinned baselines
// matching its experiment set. Call before Handler/Start, after
// AttachJobs (the compare operands resolve through the job manager).
func (s *Server) AttachLedger(led *ledger.Ledger) { s.ledger = led }

// operandError pairs an HTTP status with a message, so resolve's
// callers answer 400, 404 or 500 without re-classifying strings.
type operandError struct {
	code int
	msg  string
}

// resolve turns a run id or spec hash into its decoded manifest; name
// labels the operand in error messages. Run ids resolve through the
// job table (so "the run I just watched" works verbatim); spec hashes
// resolve through the run store (so stored history works even after
// the job table is gone).
func (a *jobAPI) resolve(name, val string) (melody.Manifest, *operandError) {
	fail := func(code int, format string, args ...any) (melody.Manifest, *operandError) {
		return melody.Manifest{}, &operandError{code, fmt.Sprintf(format, args...)}
	}
	var raw []byte
	switch {
	case val == "":
		return fail(http.StatusBadRequest, "missing %q: want a run id (run-000001) or spec hash (sha256:…)", name)
	case strings.HasPrefix(val, "run-"):
		var err error
		raw, _, err = a.mgr.Manifest(val)
		switch {
		case errors.Is(err, jobs.ErrUnknownJob):
			return fail(http.StatusNotFound, "%s: unknown job %s", name, val)
		case errors.Is(err, jobs.ErrNotFinished):
			return fail(http.StatusNotFound, "%s: job %s has not finished", name, val)
		case err != nil:
			return fail(http.StatusNotFound, "%s: %v", name, err)
		}
	case strings.HasPrefix(val, "sha256:"):
		var ok bool
		if raw, _, ok = a.mgr.ManifestBySpec(val); !ok {
			return fail(http.StatusNotFound, "%s: no stored run for spec %s", name, val)
		}
	default:
		return fail(http.StatusBadRequest, "bad %s %q: want a run id (run-000001) or spec hash (sha256:…)", name, val)
	}
	m, err := melody.DecodeManifest(raw)
	if err != nil {
		return fail(http.StatusInternalServerError, "%s manifest: %v", name, err)
	}
	return m, nil
}

// compare is GET /compare?base=&head=[&threshold=].
func (s *Server) compare(w http.ResponseWriter, r *http.Request) {
	s.compares.Inc()
	opt := diff.Options{}
	if !queryNum(w, r, "threshold", &opt.Threshold, 0, "a non-negative number (0.05 = 5%)") {
		return
	}
	base, head := r.URL.Query().Get("base"), r.URL.Query().Get("head")
	baseM, operr := s.jobs.resolve("base", base)
	if operr != nil {
		http.Error(w, operr.msg, operr.code)
		return
	}
	headM, operr := s.jobs.resolve("head", head)
	if operr != nil {
		http.Error(w, operr.msg, operr.code)
		return
	}
	rep := diff.Compare(baseM, headM, opt)
	rep.OldPath, rep.NewPath = base, head
	if rep.HasRegressions() {
		s.compareRegr.Inc()
	}
	// Content negotiation mirrors /metrics: structured JSON on request,
	// the melodydiff table otherwise.
	if wantsJSON(r.Header.Get("Accept")) {
		writeJSON(w, rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, rep.Table())
}

// wantsJSON implements /compare's two-dialect negotiation: anything
// explicitly asking for application/json gets the structured report.
func wantsJSON(accept string) bool {
	return strings.Contains(accept, "application/json")
}

// baselineList is GET /baselines.
func (s *Server) baselineList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"baselines": s.ledger.Baselines()})
}

// baselinePin is POST /baselines: pin a stored run as the named
// reference its experiment set is gated against. 201 pinned, 400 bad
// name/body, 404 unknown run or spec hash.
func (s *Server) baselinePin(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req struct {
		Name     string `json:"name"`
		SpecHash string `json:"spec_hash"`
		RunID    string `json:"run_id"`
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	hash := req.SpecHash
	if hash == "" && req.RunID != "" {
		st, ok := s.jobs.mgr.Status(req.RunID)
		if !ok {
			http.Error(w, "unknown job "+req.RunID, http.StatusNotFound)
			return
		}
		hash = st.SpecHash
	}
	if hash == "" {
		http.Error(w, `want {"name": …, "spec_hash": …} or {"name": …, "run_id": …}`, http.StatusBadRequest)
		return
	}
	b, err := s.ledger.Pin(req.Name, hash)
	switch {
	case errors.Is(err, ledger.ErrBadName):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ledger.ErrUnknownRef):
		http.Error(w, err.Error()+" (the run must be stored in the ledger)", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.log.Info("baseline pinned",
		svclog.KeyReqID, svclog.ReqID(r.Context()),
		"baseline", b.Name, svclog.KeySpecHash, b.SpecHash, "address", b.Address)
	writeJSONStatus(w, http.StatusCreated, b)
}

// baselineUnpin is DELETE /baselines/{name}.
func (s *Server) baselineUnpin(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.ledger.Unpin(name) {
		http.Error(w, "unknown baseline "+name, http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// experimentSet is the baseline-matching identity: the sorted
// experiment ids of a spec. A baseline gates exactly the runs that
// execute the same experiment set (other knobs — seed, workloads —
// may differ; that is what the diff's notes surface).
func experimentSet(exps []string) string {
	s := append([]string(nil), exps...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// diffOnCompletion diffs one finished job against every pinned
// baseline with the same experiment set. Called synchronously from the
// manager's notify path *before* the job_finished event is published,
// so per-job SSE subscribers (whose stream closes at job_finished)
// still see the regression event. Regressions become:
//
//   - melody_regressions_total{baseline=…} on /metrics (the crossrun
//     registry renders under the engine namespace),
//   - one Warn log line carrying job_id / spec_hash / trace_id,
//   - an SSE "regression" event on the job's stream and the run-level
//     /events stream.
func (a *jobAPI) diffOnCompletion(ev jobs.Event) {
	s := a.srv
	led := s.ledger
	if led == nil {
		return
	}
	baselines := led.Baselines()
	if len(baselines) == 0 {
		return
	}
	headM, operr := a.resolve("head", ev.SpecHash)
	if operr != nil {
		s.log.Error("baseline diff: head manifest unavailable",
			svclog.KeyJobID, ev.JobID, svclog.KeySpecHash, ev.SpecHash, "err", operr.msg)
		return
	}
	st, ok := a.mgr.Status(ev.JobID)
	if !ok {
		return
	}
	headSet := experimentSet(st.Spec.Experiments)

	for _, b := range baselines {
		if b.SpecHash == ev.SpecHash {
			// The run *is* the baseline; diffing it against itself says
			// nothing.
			continue
		}
		entry, ok := led.Entry(b.SpecHash)
		if !ok {
			continue
		}
		baseSpec, err := spec.Decode(entry.SpecJSON)
		if err != nil || experimentSet(baseSpec.Experiments) != headSet {
			continue
		}
		baseM, operr := a.resolve("baseline", b.SpecHash)
		if operr != nil {
			s.log.Error("baseline diff: baseline manifest unavailable",
				"baseline", b.Name, svclog.KeySpecHash, b.SpecHash, "err", operr.msg)
			continue
		}
		s.baselineChecks.Inc()
		rep := diff.Compare(baseM, headM, diff.Options{})
		rep.OldPath, rep.NewPath = "baseline:"+b.Name, ev.JobID
		if !rep.HasRegressions() {
			continue
		}
		// Baseline names are validated to a prom-safe charset at Pin
		// time, so the label value needs no further escaping.
		s.crossreg.Counter("regressions|baseline=" + b.Name).Add(uint64(len(rep.Regressions)))
		worst := rep.Regressions[0]
		s.log.Warn("baseline regression detected",
			svclog.KeyJobID, ev.JobID,
			svclog.KeySpecHash, ev.SpecHash,
			svclog.KeyTraceID, ev.TraceID,
			"baseline", b.Name,
			"baseline_spec_hash", b.SpecHash,
			"regressions", len(rep.Regressions),
			"worst_metric", worst.Metric,
			"worst_delta", worst.RelDelta,
		)
		regrEv := jobs.Event{
			Type:        EventRegression,
			JobID:       ev.JobID,
			SpecHash:    ev.SpecHash,
			TraceID:     ev.TraceID,
			Baseline:    b.Name,
			Regressions: len(rep.Regressions),
			Metric:      worst.Metric,
			Delta:       worst.RelDelta,
		}
		a.hub(ev.JobID).Publish(regrEv)
		s.hub.Publish(regrEv)
	}
}
