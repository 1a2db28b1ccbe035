// Package serve is the live run observatory: an HTTP server that runs
// concurrently with the engine and exposes its telemetry while the run
// is still in flight — the counterpart to the post-mortem artifacts
// (-metrics manifests, traces, profiles) built in earlier layers.
//
// Endpoints:
//
//	GET /metrics   Prometheus text exposition of the engine registry
//	               plus the observatory's own registry (scrape counts,
//	               SSE drop counters)
//	GET /progress  JSON snapshot: per-experiment done/total, per-cell
//	               wall stats, cache hit rates
//	GET /events    SSE stream of cell-completion and experiment-
//	               boundary events (bounded per-client queues,
//	               drop-oldest)
//	GET /healthz   liveness probe (process up)
//	GET /readyz    readiness probe: accepting/draining plus queue
//	               depth when the job API is attached (503 while
//	               draining)
//
// With AttachJobs, the observatory stops being read-only and becomes
// the experiment front door (see internal/jobs):
//
//	POST /runs                 submit a RunSpec, get a job id (429
//	                           when the queue is full, 503 draining)
//	GET  /runs                 list jobs
//	GET  /runs/{id}            one job's status
//	GET  /runs/{id}/manifest   the finished job's manifest (202 while
//	                           queued/running, 409 failed/canceled)
//	GET  /runs/{id}/events     per-job SSE stream (same bounded
//	                           drop-oldest queues as /events)
//
// Every route mounts through one middleware layer (middleware.go):
// per-route RED metrics (request counters by status class, latency
// histograms, an in-flight gauge), panic recovery that answers 500 and
// logs instead of killing the observatory, and access logs carrying a
// per-request correlation id (X-Request-Id in, echoed out). A Go
// runtime collector (runtime.go) samples goroutines, heap, GC pauses
// and uptime at scrape time. All of it renders on /metrics under the
// melody_observatory_ namespace; install a logger with SetLogger
// (silent by default).
//
// Isolation contract: serving reads only lock-free or short-critical-
// section snapshots (atomic counter loads, a progress snapshot behind
// an atomic pointer, histogram exports holding only that histogram's
// lock). The server never creates instruments in the engine's registry
// — its own counters, the HTTP middleware's RED metrics and the
// runtime gauges all live in a separate self-registry exposed only on
// /metrics — so a run's -metrics manifest is byte-identical with and
// without -serve (and with or without logging), and scraping perturbs
// neither results nor the hot path.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/moatlab/melody/internal/jobs"
	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/hostprof"
	"github.com/moatlab/melody/internal/obs/ledger"
	"github.com/moatlab/melody/internal/obs/prom"
	"github.com/moatlab/melody/internal/obs/svclog"
	"github.com/moatlab/melody/internal/obs/tracespan"
)

// Namespaces used on /metrics: the engine registry and the server's
// self-registry render under distinct prefixes so their families can
// never collide.
const (
	EngineNamespace = "melody"
	SelfNamespace   = "melody_observatory"
)

// Server assembles the observatory endpoints over an engine registry, a
// progress-snapshot source, and an event hub.
type Server struct {
	registry *obs.Registry
	progress func() any
	hub      *Hub
	self     *obs.Registry
	start    time.Time
	jobs     *jobAPI
	log      *slog.Logger
	rt       *runtimeSampler
	tracer   *tracespan.Tracer
	prof     *hostprof.Profiler
	ledger   *ledger.Ledger

	// crossreg holds the cross-run regression families. Unlike the
	// self-registry it renders under the *engine* namespace — the
	// counter path "regressions|baseline=…" becomes
	// melody_regressions_total{baseline="…"} — because a regression is
	// a statement about the experiment results, not about the
	// observatory process.
	crossreg *obs.Registry

	// DebugPprof mounts the standard /debug/pprof/* handlers on the
	// observatory mux (off by default: live profiling of a shared
	// observatory is opt-in). Set before Handler/Start.
	DebugPprof bool

	scrapes        *obs.Counter
	progReads      *obs.Counter
	encodeFails    *obs.Counter
	compares       *obs.Counter
	compareRegr    *obs.Counter
	baselineChecks *obs.Counter
	inflight       *obs.Gauge
	inflightN      atomic.Int64
}

// New builds a Server. registry is the engine's telemetry registry
// (nil renders an empty engine section); progress returns the
// /progress JSON payload (nil serves {}). The server creates its own
// self-registry and event hub.
func New(registry *obs.Registry, progress func() any) *Server {
	self := obs.NewRegistry()
	start := time.Now()
	s := &Server{
		registry:       registry,
		progress:       progress,
		self:           self,
		start:          start,
		log:            svclog.Discard(),
		rt:             newRuntimeSampler(self, start),
		crossreg:       obs.NewRegistry(),
		scrapes:        self.Counter("serve/metrics_scrapes"),
		progReads:      self.Counter("serve/progress_reads"),
		encodeFails:    self.Counter("serve/event_encode_failures"),
		compares:       self.Counter("compare/requests"),
		compareRegr:    self.Counter("compare/regressions_reported"),
		baselineChecks: self.Counter("compare/baseline_checks"),
		inflight:       self.Gauge("http/in_flight"),
		tracer:         tracespan.NewTracer(tracespan.NewStore()),
	}
	s.hub = NewHub(self.Counter("serve/events_published"), self.Counter("serve/events_dropped"))
	return s
}

// Tracer returns the server's span tracer. The serve middleware roots
// every request's trace here; AttachJobs hands it to the job manager so
// queue/exec spans land in the same store; cmd wiring may SetMirror it
// onto the run's obs.Trace, which the engine's own spans also feed, for
// a combined Perfetto view.
func (s *Server) Tracer() *tracespan.Tracer { return s.tracer }

// TraceStore returns the bounded span store behind /traces.
func (s *Server) TraceStore() *tracespan.Store { return s.tracer.Store() }

// SetLogger installs the observatory's structured logger (access logs,
// panic reports, listener failures). A nil l restores the default
// silent logger. Call before Handler/Start.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = svclog.Discard()
	}
	s.log = l
}

// Hub returns the server's event hub for publishers.
func (s *Server) Hub() *Hub { return s.hub }

// SelfRegistry returns the observatory's own registry — exposed on
// /metrics but deliberately absent from the run manifest.
func (s *Server) SelfRegistry() *obs.Registry { return s.self }

// Handler returns the observatory's route table. Call AttachJobs
// first to mount the job API. Every route mounts through the RED
// middleware (see middleware.go); the route label on the emitted
// metrics is the mux pattern, so /runs/{id} stays one series however
// many jobs exist.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.wrap("/", s.index))
	mux.Handle("/metrics", s.wrap("/metrics", s.metrics))
	mux.Handle("/progress", s.wrap("/progress", s.progressHandler))
	mux.Handle("/events", s.wrap("/events", s.events))
	mux.Handle("/healthz", s.wrap("/healthz", s.healthz))
	mux.Handle("GET /readyz", s.wrap("/readyz", s.readyz))
	mux.Handle("GET /traces", s.wrap("/traces", s.traceList))
	mux.Handle("GET /traces/{id}", s.wrap("/traces/{id}", s.traceGet))
	if s.prof != nil {
		mux.Handle("GET /profiles", s.wrap("/profiles", s.profileList))
		mux.Handle("GET /profiles/heapdelta", s.wrap("/profiles/heapdelta", s.profileHeapDelta))
		mux.Handle("GET /profiles/{id}", s.wrap("/profiles/{id}", s.profileGet))
	} else {
		s.unavailable(mux, "host profiling not enabled on this observatory (start with -prof-interval)",
			"/profiles", "/profiles/")
	}
	if s.DebugPprof {
		// One route label for the whole family keeps cardinality bounded.
		for _, p := range pprofHandlers {
			mux.Handle(p.path, s.wrap("/debug/pprof/", p.h))
		}
	}
	if s.jobs != nil {
		mux.Handle("POST /runs", s.wrap("/runs", s.jobs.submit))
		mux.Handle("GET /runs", s.wrap("/runs", s.jobs.list))
		mux.Handle("GET /runs/{id}", s.wrap("/runs/{id}", s.jobs.status))
		mux.Handle("GET /runs/{id}/manifest", s.wrap("/runs/{id}/manifest", s.jobs.manifest))
		mux.Handle("GET /runs/{id}/events", s.wrap("/runs/{id}/events", s.jobs.events))
		// /compare resolves operands through the job manager's run store,
		// so it works with the in-memory store too; /baselines needs the
		// durable ledger.
		mux.Handle("GET /compare", s.wrap("/compare", s.compare))
	} else {
		s.unavailable(mux, "job service not enabled on this observatory", "/runs", "/runs/", "/compare")
	}
	if s.ledger != nil && s.jobs != nil {
		mux.Handle("GET /baselines", s.wrap("/baselines", s.baselineList))
		mux.Handle("POST /baselines", s.wrap("/baselines", s.baselinePin))
		mux.Handle("DELETE /baselines/{name}", s.wrap("/baselines/{name}", s.baselineUnpin))
	} else {
		s.unavailable(mux, "run ledger not enabled on this observatory (start with -data-dir)",
			"/baselines", "/baselines/")
	}
	return mux
}

// unavailable answers every pattern with 503 and msg, the hint for an
// optional subsystem that is not attached. A subtree pattern ("/runs/")
// shares its parent's route label.
func (s *Server) unavailable(mux *http.ServeMux, msg string, patterns ...string) {
	for _, p := range patterns {
		mux.Handle(p, s.wrap(strings.TrimSuffix(p, "/"), func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, msg, http.StatusServiceUnavailable)
		}))
	}
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "melody observatory\n\n/metrics   Prometheus exposition\n/progress  JSON run progress\n/events    SSE run events\n/healthz   liveness\n/readyz    readiness (queue state)\n/traces    request trace store (list; /traces/{id} for one span tree)\n/profiles  host profile store (list; /profiles/{id} raw pb.gz; /profiles/heapdelta)\n/runs      experiment job API (POST spec, GET status/manifest/events)\n/compare   diff two stored runs (?base=&head=, run id or spec hash)\n/baselines pinned regression baselines (GET list, POST pin, DELETE unpin)\n")
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Inc()
	// Runtime gauges refresh lazily, right before the export, so every
	// scrape sees current goroutine/heap/GC state.
	s.rt.sample()
	// Dialect rides the Accept header: scrapers asking for OpenMetrics
	// get exemplars and the # EOF terminator; everyone else gets plain
	// 0.0.4, whose grammar has no exemplar clause.
	format, contentType := prom.Negotiate(r.Header.Get("Accept"))
	w.Header().Set("Content-Type", contentType)
	// Three sections. The engine registry: New's contract renders a nil
	// one as an empty section (the `melody serve` observatory has no
	// process-wide engine registry; each job's lands in its manifest).
	// The cross-run regression families, also under the engine
	// namespace: melody_regressions_total{baseline=…} is a statement
	// about the experiment results, not the serving process; the
	// registry renders nothing until a baseline diff has run. Last, the
	// self-registry.
	for _, sec := range []struct {
		ns  string
		reg *obs.Registry
	}{{EngineNamespace, s.registry}, {EngineNamespace, s.crossreg}, {SelfNamespace, s.self}} {
		if err := prom.WriteFormat(w, sec.ns, sec.reg.Export(), format); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if format == prom.FormatOpenMetrics {
		if err := prom.WriteEOF(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func (s *Server) progressHandler(w http.ResponseWriter, r *http.Request) {
	s.progReads.Inc()
	var payload any = struct{}{}
	if s.progress != nil {
		payload = s.progress()
	}
	writeJSON(w, payload)
}

// healthz is pure liveness: the process is up and serving. It answers
// "restart me?" — readiness ("send me work?") lives on /readyz. Both
// probes carry build info so a scrape archive correlates behavior
// changes with deploys without a separate version endpoint.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
		"build":    buildInfo(),
	})
}

// readyz is readiness: whether this observatory accepts new work. With
// a job API attached it reports the admission state and queue depth,
// and answers 503 while draining so load balancers stop routing
// submissions during shutdown. Without one it is statically ready.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	payload := map[string]any{
		"status":   "ready",
		"jobs":     s.jobs != nil,
		"uptime_s": time.Since(s.start).Seconds(),
		"build":    buildInfo(),
	}
	code := http.StatusOK
	if s.jobs != nil {
		mgr := s.jobs.mgr
		accepting := mgr.Accepting()
		payload["accepting"] = accepting
		payload["queue_depth"] = mgr.QueueDepth()
		payload["queue_cap"] = mgr.QueueCap()
		if !accepting {
			payload["status"], code = "draining", http.StatusServiceUnavailable
		}
	}
	writeJSONStatus(w, code, payload)
}

// events serves the run-level SSE stream, opened by a comment line and
// ended by run_end.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, s.hub, func(w io.Writer) bool {
		fmt.Fprint(w, ": melody observatory event stream\n\n")
		return true
	}, jobs.EventRunEnd)
}

// stream serves hub as an SSE stream. Every event renders as
//
//	id: <seq>
//	event: <type>
//	data: <json>
//
// and sequence-number gaps tell the client exactly how many events its
// slowness cost it. open writes the stream's first bytes once the
// subscription exists, so nothing published after it can be missed; it
// returns false to end the stream there. Otherwise the stream ends
// after an event of type last is written.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, hub *Hub, open func(io.Writer) bool, last string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := hub.Subscribe()
	defer hub.Unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	more := open(w)
	fl.Flush()
	for more {
		evs, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		for _, ev := range evs {
			data, err := marshalEvent(ev)
			if err != nil {
				// The event is lost to this client; make the loss
				// measurable instead of silent.
				s.encodeFails.Inc()
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			if ev.Type == last {
				more = false
			}
		}
		fl.Flush()
	}
}

// queryNum reads the numeric query parameter key into dst, which keeps
// its value when the parameter is absent. A value that does not parse
// or is not at least min (NaN included) answers 400 "bad <key>: want
// <want>" and returns false.
func queryNum[T int | float64](w http.ResponseWriter, r *http.Request, key string, dst *T, min T, want string) bool {
	v := r.URL.Query().Get(key)
	if v == "" {
		return true
	}
	var n T
	var err error
	switch p := any(&n).(type) {
	case *int:
		*p, err = strconv.Atoi(v)
	case *float64:
		*p, err = strconv.ParseFloat(v, 64)
	}
	if err != nil || !(n >= min) {
		http.Error(w, "bad "+key+": want "+want, http.StatusBadRequest)
		return false
	}
	*dst = n
	return true
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus answers code with v as indented JSON. It encodes
// before writing any header, so an encode error still answers 500.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// Running is a started observatory server.
type Running struct {
	ln  net.Listener
	srv *http.Server
	// stopProf cancels the attached profiler's loop and waits for it
	// (nil without one).
	stopProf func()
}

// Addr returns the bound listen address (useful with ":0").
func (r *Running) Addr() net.Addr { return r.ln.Addr() }

// Close stops the attached profiler, waiting for an in-flight capture
// window to drain, then shuts the server down immediately, dropping
// open SSE streams.
func (r *Running) Close() error {
	if r.stopProf != nil {
		r.stopProf()
	}
	return r.srv.Close()
}

// Start listens on addr and serves the observatory in the background,
// running the attached profiler (if any) until Close. Listening is
// synchronous so a bad address fails before the run starts, mirroring
// the -pprof flag's fail-fast contract.
func (s *Server) Start(addr string) (*Running, error) {
	run, err := listen(addr, "observatory", s.Handler(), s.log)
	if err != nil || s.prof == nil {
		return run, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.prof.Run(ctx); close(done) }()
	run.stopProf = func() { cancel(); <-done }
	return run, nil
}

// listen binds addr synchronously and serves h in the background; name
// prefixes its log lines.
func listen(addr, name string, h http.Handler, log *slog.Logger) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	log.Info(name+" listening", "addr", ln.Addr().String())
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// A listener must never take the run down with it — but a
			// dead one must not be invisible either: the run would
			// finish fine while every scrape silently failed.
			log.Error(name+" listener failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	return &Running{ln: ln, srv: srv}, nil
}
