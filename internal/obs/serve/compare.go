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
	"strconv"
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
func (s *Server) AttachLedger(led *ledger.Ledger) {
	if led == nil {
		return
	}
	s.ledger = led
}

// operandError pairs an HTTP status with a message, so resolve's
// callers answer 400 vs 404 without re-classifying strings.
type operandError struct {
	code int
	msg  string
}

func (e *operandError) Error() string { return e.msg }

// resolveOperand turns one /compare operand into manifest bytes. Run
// ids resolve through the job table (so "the run I just watched" works
// verbatim); spec hashes resolve through the run store (so stored
// history works even after the job table is gone).
func (a *jobAPI) resolveOperand(name, val string) ([]byte, *operandError) {
	switch {
	case val == "":
		return nil, &operandError{http.StatusBadRequest,
			fmt.Sprintf("missing %q: want a run id (run-000001) or spec hash (sha256:…)", name)}
	case strings.HasPrefix(val, "run-"):
		raw, _, err := a.mgr.Manifest(val)
		switch {
		case errors.Is(err, jobs.ErrUnknownJob):
			return nil, &operandError{http.StatusNotFound, fmt.Sprintf("%s: unknown job %s", name, val)}
		case errors.Is(err, jobs.ErrNotFinished):
			return nil, &operandError{http.StatusNotFound, fmt.Sprintf("%s: job %s has not finished", name, val)}
		case err != nil:
			return nil, &operandError{http.StatusNotFound, fmt.Sprintf("%s: %v", name, err)}
		}
		return raw, nil
	case strings.HasPrefix(val, "sha256:"):
		raw, _, ok := a.mgr.ManifestBySpec(val)
		if !ok {
			return nil, &operandError{http.StatusNotFound, fmt.Sprintf("%s: no stored run for spec %s", name, val)}
		}
		return raw, nil
	default:
		return nil, &operandError{http.StatusBadRequest,
			fmt.Sprintf("bad %s %q: want a run id (run-000001) or spec hash (sha256:…)", name, val)}
	}
}

// compare is GET /compare?base=&head=[&threshold=].
func (s *Server) compare(w http.ResponseWriter, r *http.Request) {
	s.compares.Inc()
	q := r.URL.Query()
	opt := diff.Options{}
	if v := q.Get("threshold"); v != "" {
		th, err := strconv.ParseFloat(v, 64)
		if err != nil || th < 0 {
			http.Error(w, "bad threshold: want a non-negative number (0.05 = 5%)", http.StatusBadRequest)
			return
		}
		opt.Threshold = th
	}
	base, head := q.Get("base"), q.Get("head")
	baseRaw, operr := s.jobs.resolveOperand("base", base)
	if operr == nil {
		var headRaw []byte
		if headRaw, operr = s.jobs.resolveOperand("head", head); operr == nil {
			baseM, err := melody.DecodeManifest(baseRaw)
			if err != nil {
				http.Error(w, "base manifest: "+err.Error(), http.StatusInternalServerError)
				return
			}
			headM, err := melody.DecodeManifest(headRaw)
			if err != nil {
				http.Error(w, "head manifest: "+err.Error(), http.StatusInternalServerError)
				return
			}
			rep := diff.Compare(baseM, headM, opt)
			rep.OldPath, rep.NewPath = base, head
			if rep.HasRegressions() {
				s.compareRegr.Inc()
			}
			// Content negotiation mirrors /metrics: structured JSON on
			// request, the melodydiff table otherwise.
			if wantsJSON(r.Header.Get("Accept")) {
				writeJSON(w, rep)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, rep.Table())
			return
		}
	}
	http.Error(w, operr.msg, operr.code)
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(b)
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

// noLedger answers /compare and /baselines when no durable ledger is
// attached — same 503-with-hint pattern as the other optional
// subsystems.
func (s *Server) noLedger(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "run ledger not enabled on this observatory (start with -data-dir)", http.StatusServiceUnavailable)
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
	raw, _, ok := a.mgr.ManifestBySpec(ev.SpecHash)
	if !ok {
		return
	}
	headM, err := melody.DecodeManifest(raw)
	if err != nil {
		s.log.Error("baseline diff: head manifest undecodable",
			svclog.KeyJobID, ev.JobID, svclog.KeySpecHash, ev.SpecHash, "err", err.Error())
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
		baseRaw, _, ok := led.Get(b.SpecHash)
		if !ok {
			continue
		}
		baseM, err := melody.DecodeManifest(baseRaw)
		if err != nil {
			s.log.Error("baseline diff: baseline manifest undecodable",
				"baseline", b.Name, svclog.KeySpecHash, b.SpecHash, "err", err.Error())
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
		regrEv := Event{
			Type:        EventRegression,
			Job:         ev.JobID,
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
