package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/dse/search"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/surface"
)

// The request bodies' wire shapes are owned by the cluster layer, whose
// client submits them; see there for their fields.
type (
	RunRequest      = cluster.RunRequest
	SweepRequest    = cluster.SweepRequest
	OptimizeRequest = cluster.OptimizeRequest
	SurfaceRequest  = cluster.SurfaceRequest
)

// JobResponse wraps every job-bearing response body.
type JobResponse struct {
	Job View `json:"job"`
}

// TargetsResponse is the GET /v1/targets body; device.Info carries the
// wire-format tags (string kind and loop mode).
type TargetsResponse struct {
	Targets []device.Info `json:"targets"`
}

// JobsResponse is the GET /v1/jobs body. Total counts the retained
// jobs before any filter; Filtered counts the jobs matching the
// ?state= filter before the ?limit= truncation — so a truncated
// listing is explicit about what it dropped.
type JobsResponse struct {
	Jobs     []View `json:"jobs"`
	Total    int    `json:"total"`
	Filtered int    `json:"filtered"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; the largest legitimate sweep
// space is well under a megabyte.
const maxBodyBytes = 4 << 20

// decodeBody decodes a JSON request body, bounded to maxBodyBytes and
// gated on the declared Content-Type: anything other than JSON (an
// absent header is accepted for curl ergonomics) is rejected with 415
// before a byte of the body is read, and a body over the bound is cut
// off with 413 by http.MaxBytesReader. The returned status is 0 on
// success.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) (int, error) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
			return http.StatusUnsupportedMediaType,
				fmt.Errorf("unsupported content type %q (want application/json)", ct)
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	// A typoed knob silently falling back to its default would compute
	// (and cache) a result for the wrong configuration.
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	return 0, nil
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/run              run one configuration (sync, or async with "async": true)
//	POST   /v1/sweep            explore a parameter grid exhaustively ("shard": {"lo", "hi"} runs one slice locally)
//	POST   /v1/optimize         search a parameter grid with a budgeted strategy
//	POST   /v1/surface          measure a bandwidth–latency surface ("shard" runs a curve range locally)
//	GET    /v1/jobs             list jobs (?state=, ?limit=), stable submit-time order
//	GET    /v1/jobs/{id}        poll one job (live progress snapshot included)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream NDJSON progress/point/result events
//	GET    /v1/jobs/{id}/trace  span timeline of a job (?format=chrome for Perfetto)
//	POST   /v1/baselines        record a named baseline (from a finished job or an inline result)
//	GET    /v1/baselines        list baselines with their latest check verdicts
//	GET    /v1/baselines/{name} one baseline with its latest check verdict
//	DELETE /v1/baselines/{name} forget a baseline
//	GET    /v1/baselines/alerts NDJSON feed of non-pass check verdicts (?follow=1 to stream)
//	POST   /v1/check            re-measure a baseline and verdict the drift (a first-class job)
//	GET    /v1/targets          list benchmark targets
//	GET    /v1/version          build info, registered targets, strategies, objectives
//	GET    /v1/healthz          liveness, queue, job and cache telemetry (+ worker counts on coordinators)
//	GET    /v1/metrics          Prometheus text exposition (404 when metrics are disabled)
//
// Fleet endpoints (see internal/cluster):
//
//	POST   /v1/cluster/register      worker registration (coordinators only)
//	POST   /v1/cluster/heartbeat     worker liveness refresh (coordinators only)
//	GET    /v1/cluster/workers       registry snapshot (coordinators only)
//	GET    /v1/cluster/metrics       federated fleet metrics, one exposition with a worker label (coordinators only)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/surface", s.handleSurface)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	// Chrome-trace exports of fleet jobs run to megabytes; gzip is
	// negotiated per request, like the metrics expositions below.
	mux.Handle("GET /v1/jobs/{id}/trace", obs.GzipHandler(http.HandlerFunc(s.handleJobTrace)))
	mux.HandleFunc("POST /v1/baselines", s.handleRecordBaseline)
	mux.HandleFunc("GET /v1/baselines", s.handleBaselines)
	// The literal pattern wins over the {name} wildcard, so "alerts" is
	// never a baseline name from the router's point of view (the name
	// charset forbids nothing here — it is simply shadowed).
	mux.HandleFunc("GET /v1/baselines/alerts", s.handleBaselineAlerts)
	mux.HandleFunc("GET /v1/baselines/{name}", s.handleBaseline)
	mux.HandleFunc("DELETE /v1/baselines/{name}", s.handleDeleteBaseline)
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("GET /v1/targets", s.handleTargets)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if s.reg != nil {
		// Scrape bodies compress an order of magnitude; gzip is
		// negotiated per request via Accept-Encoding.
		mux.Handle("GET /v1/metrics", obs.GzipHandler(s.reg.Handler()))
	}
	mux.Handle("GET /v1/cluster/metrics", obs.GzipHandler(http.HandlerFunc(s.handleClusterMetrics)))
	mux.HandleFunc("POST /v1/cluster/register", s.handleClusterRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", s.handleClusterHeartbeat)
	mux.HandleFunc("GET /v1/cluster/workers", s.handleClusterWorkers)
	// The middleware mints/propagates trace IDs and measures every
	// route; with metrics disabled it still carries traces through.
	return obs.Middleware(s.reg, s.log, mux)
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// submitCode maps submission failures to HTTP statuses.
func submitCode(err error) int {
	if errors.Is(err, ErrQueueFull) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeSubmitError reports a failed submission. Refusals for load
// (queue full → 503) are warned with the request's trace ID so an
// operator can line shed requests up against client-side retries.
func (s *Server) writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	code := submitCode(err)
	if code == http.StatusServiceUnavailable {
		s.log.Warn("submission refused",
			"path", r.URL.Path, "code", code, "trace", obs.TraceID(r.Context()), "err", err)
	}
	writeError(w, code, err)
}

// respond waits for a synchronous job (or returns immediately for an
// async one) and writes the job view. If the client goes away while a
// sync job is still running, the job keeps executing — its result stays
// pollable and cached.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, j *Job, async bool) {
	if async {
		writeJSON(w, http.StatusAccepted, JobResponse{Job: j.Snapshot()})
		return
	}
	select {
	case <-j.Done():
		writeJSON(w, http.StatusOK, JobResponse{Job: j.Snapshot()})
	case <-r.Context().Done():
		writeJSON(w, http.StatusAccepted, JobResponse{Job: j.Snapshot()})
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	cfg := core.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	j, err := s.SubmitRun(r.Context(), req.Target, cfg, msToDuration(req.TimeoutMS))
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	s.respond(w, r, j, req.Async)
}

// msToDuration converts a request's timeout_ms field; negative values
// pass through negative so submit-time validation rejects them, and
// values beyond the representable Duration range saturate (the
// server-side clamp then shortens them to MaxTimeout) instead of
// overflowing into an arbitrary small deadline.
func msToDuration(ms int64) time.Duration {
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	if ms > maxMS {
		ms = maxMS
	}
	if ms < -maxMS {
		// Saturate negative overflow too, so a huge negative stays
		// negative and is rejected instead of wrapping positive.
		ms = -maxMS
	}
	return time.Duration(ms) * time.Millisecond
}

// gridDefaults resolves a sweep or optimize request's optional fields:
// the base configuration defaults to core.DefaultConfig() and the
// kernel op to copy.
func gridDefaults(base *core.Config, op *kernel.Op) (core.Config, kernel.Op) {
	b, o := core.DefaultConfig(), kernel.Copy
	if base != nil {
		b = *base
	}
	if op != nil {
		o = *op
	}
	return b, o
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	base, op := gridDefaults(req.Base, req.Op)
	j, err := s.SubmitSweep(r.Context(), req.Target, base, req.Space, op, req.Shard, msToDuration(req.TimeoutMS))
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	s.respond(w, r, j, req.Async)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	base, op := gridDefaults(req.Base, req.Op)
	opts := search.Options{Strategy: req.Strategy, Budget: req.Budget, Seed: req.Seed, Objective: req.Objective}
	j, err := s.SubmitOptimize(r.Context(), req.Target, base, req.Space, op, opts, msToDuration(req.TimeoutMS))
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	s.respond(w, r, j, req.Async)
}

func (s *Server) handleSurface(w http.ResponseWriter, r *http.Request) {
	var req SurfaceRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	var cfg surface.Config
	if req.Config != nil {
		cfg = *req.Config
	}
	j, err := s.SubmitSurface(r.Context(), req.Target, cfg, req.Shard, msToDuration(req.TimeoutMS))
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	s.respond(w, r, j, req.Async)
}

// VersionResponse is the GET /v1/version body: enough for a client to
// know what it is talking to and what it may ask for.
type VersionResponse struct {
	Service   string `json:"service"`
	GoVersion string `json:"go_version"`
	// ModuleVersion, VCSRevision and VCSTime come from the build info
	// when available (released builds and clean checkouts).
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	VCSTime       string `json:"vcs_time,omitempty"`
	// Targets lists the registered benchmark targets, Strategies the
	// optimizer strategies, Objectives the optimizer ranking metrics.
	Targets    []string `json:"targets"`
	Strategies []string `json:"strategies"`
	Objectives []string `json:"objectives"`
}

// Version assembles the build and capability report GET /v1/version
// serves. It is exported so mpserved -version prints the same content
// without standing a server up; targets nil means the default target
// set.
func Version(targets []string) VersionResponse {
	if targets == nil {
		opts := Options{}.withDefaults()
		for _, inf := range opts.TargetInfos() {
			targets = append(targets, inf.ID)
		}
	}
	v := VersionResponse{
		Service:    "mpstream",
		GoVersion:  runtime.Version(),
		Targets:    targets,
		Strategies: search.Strategies(),
		Objectives: search.Objectives(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			v.ModuleVersion = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				v.VCSRevision = kv.Value
			case "vcs.time":
				v.VCSTime = kv.Value
			}
		}
	}
	return v
}

func (s *Server) version() VersionResponse {
	targets := make([]string, 0, len(s.infos))
	for _, inf := range s.infos {
		targets = append(targets, inf.ID)
	}
	return Version(targets)
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.version())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{Job: j.Snapshot()})
}

// handleCancelJob is DELETE /v1/jobs/{id}: cancel a queued or running
// job. The call is idempotent — canceling a finished job is a no-op —
// and always answers with the job's current view, so the client sees
// whether the cancel landed (queued jobs flip to canceled immediately;
// running ones within one evaluation unit).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{Job: j.Snapshot()})
}

// handleJobs is GET /v1/jobs: every job in stable submit-time order,
// optionally filtered with ?state= (queued|running|done|failed|canceled)
// and bounded with ?limit=N (the N most recent matching jobs, still
// oldest first).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := Status(q.Get("state"))
	if state != "" {
		known := false
		for _, st := range Statuses() {
			if state == st {
				known = true
				break
			}
		}
		if !known {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown state %q (want one of %v)", state, Statuses()))
			return
		}
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q (want a non-negative integer)", ls))
			return
		}
		limit = n
	}
	views, total, matched := s.jobs.snapshots(state, limit)
	writeJSON(w, http.StatusOK, JobsResponse{Jobs: views, Total: total, Filtered: matched})
}

// handleJobEvents is GET /v1/jobs/{id}/events: an NDJSON stream of the
// job's state/point/progress events, ending with a result event when
// the job reaches a terminal state. Subscribing to a finished job
// replays its retained history and the final result. The stream is
// telemetry: a slow reader loses intermediate events (visible as seq
// gaps) but always gets the terminal result.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}

	backlog, ch := j.Subscribe()
	defer j.Unsubscribe(ch)
	emitted := uint64(0)
	// emit writes one event; done is true when the stream must end —
	// either the write failed or the terminal result event went out.
	emit := func(ev Event) (done bool) {
		if err := enc.Encode(ev); err != nil {
			return true
		}
		if ev.Seq > emitted {
			emitted = ev.Seq
		}
		flush()
		return ev.Type == EventResult
	}
	for _, ev := range backlog {
		if emit(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			if emit(ev) {
				return
			}
		case <-j.Done():
			// Drain whatever the publisher got in before Done closed, then
			// make sure the terminal view went out even if the result event
			// was dropped or raced the subscription.
			for {
				select {
				case ev := <-ch:
					if emit(ev) {
						return
					}
				default:
					final := j.Snapshot()
					emit(Event{Seq: emitted + 1, Job: final.ID, Time: final.Finished,
						Type: EventResult, State: final.Status, Result: &final})
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// BaselineResponse wraps single-baseline response bodies.
type BaselineResponse struct {
	Baseline BaselineView `json:"baseline"`
}

// BaselinesResponse is the GET /v1/baselines body.
type BaselinesResponse struct {
	Baselines []BaselineView `json:"baselines"`
}

// handleRecordBaseline is POST /v1/baselines: register (or re-record)
// a named reference measurement from a finished job or an inline
// payload.
func (s *Server) handleRecordBaseline(w http.ResponseWriter, r *http.Request) {
	var req BaselineRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	e, err := s.RecordBaseline(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, BaselineResponse{Baseline: BaselineView{Entry: e}})
}

func (s *Server) handleBaselines(w http.ResponseWriter, _ *http.Request) {
	views, err := s.Baselines()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if views == nil {
		views = []BaselineView{}
	}
	writeJSON(w, http.StatusOK, BaselinesResponse{Baselines: views})
}

func (s *Server) handleBaseline(w http.ResponseWriter, r *http.Request) {
	v, err := s.Baseline(r.PathValue("name"))
	if err != nil {
		writeError(w, baselineCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, BaselineResponse{Baseline: v})
}

func (s *Server) handleDeleteBaseline(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.DeleteBaseline(name); err != nil {
		writeError(w, baselineCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{Deleted: name})
}

// baselineCode maps baseline lookup failures to HTTP statuses.
func baselineCode(err error) int {
	if errors.Is(err, ErrNoBaseline) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// handleCheck is POST /v1/check: submit a re-measurement of a named
// baseline as a first-class job (NDJSON events, spans, cancellation and
// partial verdicts included). The response carries the job view with
// its Check report; a fail verdict is still HTTP 200 — severity rides
// in the report, not the status code.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	j, err := s.SubmitCheck(r.Context(), req.Name, req.Tolerance, msToDuration(req.TimeoutMS))
	if err != nil {
		if errors.Is(err, ErrNoBaseline) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		s.writeSubmitError(w, r, err)
		return
	}
	s.respond(w, r, j, req.Async)
}

// handleBaselineAlerts is GET /v1/baselines/alerts: the NDJSON feed of
// non-pass check verdicts. By default the retained backlog is replayed
// and the stream closes; with ?follow=1 it stays open and streams new
// alerts until the client disconnects or the server shuts down.
func (s *Server) handleBaselineAlerts(w http.ResponseWriter, r *http.Request) {
	follow := r.URL.Query().Get("follow") == "1"
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	backlog, ch := s.alerts.subscribe()
	defer s.alerts.unsubscribe(ch)
	for _, a := range backlog {
		if enc.Encode(a) != nil {
			return
		}
	}
	flush()
	if !follow {
		return
	}
	for {
		select {
		case a := <-ch:
			if enc.Encode(a) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		case <-s.quit:
			return
		}
	}
}

func (s *Server) handleTargets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, TargetsResponse{Targets: s.infos})
}

// coordinator returns the attached fleet coordinator, writing a 404
// when this server is not one (registration against a plain server or
// worker is an operator misconfiguration worth a clear message).
func (s *Server) coordinator(w http.ResponseWriter) *cluster.Coordinator {
	if s.opts.Cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("this server is not a cluster coordinator"))
		return nil
	}
	return s.opts.Cluster
}

// handleClusterRegister is POST /v1/cluster/register: a worker
// announces (or refreshes) itself and learns the heartbeat contract.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	c := s.coordinator(w)
	if c == nil {
		return
	}
	var info cluster.WorkerInfo
	if code, err := decodeBody(w, r, &info); err != nil {
		writeError(w, code, err)
		return
	}
	if info.ID == "" || info.Addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("worker registration needs id and addr"))
		return
	}
	writeJSON(w, http.StatusOK, c.Register(info))
}

// handleClusterHeartbeat is POST /v1/cluster/heartbeat: a worker
// refreshes its liveness; known false asks it to re-register.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	c := s.coordinator(w)
	if c == nil {
		return
	}
	var req cluster.HeartbeatRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.HeartbeatResponse{Known: c.Heartbeat(req.ID)})
}

// WorkersResponse is the GET /v1/cluster/workers body.
type WorkersResponse struct {
	Workers []cluster.WorkerView `json:"workers"`
}

// handleClusterWorkers is GET /v1/cluster/workers: the fleet registry
// snapshot, sorted by worker ID.
func (s *Server) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	c := s.coordinator(w)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, WorkersResponse{Workers: c.Workers()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's assembled span
// tree — queue wait, run, per-point and per-shard spans, including
// spans ingested from workers — as a TraceView with the critical path
// and coverage, or as Chrome trace-event JSON with ?format=chrome
// (load in Perfetto or chrome://tracing). 404 when telemetry is
// disabled or the span ring has already evicted the job's spans.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled on this server"))
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	snap := j.Snapshot()
	spans := obs.Descendants(s.rec.Spans(snap.Trace), j.rootSpanID())
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no spans retained for job %q (evicted from the span ring)", snap.ID))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, spans)
		return
	}
	writeJSON(w, http.StatusOK, obs.NewTraceView(snap.ID, snap.Trace, spans, j.rootSpanID()))
}

// scrapeTimeout bounds each worker scrape a federated metrics request
// fans out; one stuck worker costs at most this much latency and is
// reported as a failed part rather than stalling the response.
const scrapeTimeout = 2 * time.Second

// handleClusterMetrics is GET /v1/cluster/metrics: the coordinator's
// own exposition merged with a live concurrent scrape of every alive
// worker's /v1/metrics, re-rendered as one exposition in which every
// sample carries a worker label ("coordinator" for local samples). A
// synthesized mpstream_federation_up gauge reports per-worker scrape
// health so a dead scrape is visible rather than silently absent.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.coordinator(w)
	if c == nil {
		return
	}
	self := "coordinator"
	if s.opts.Origin != "" {
		self = s.opts.Origin
	}
	parts := []obs.Exposition{}
	if s.reg != nil {
		var buf strings.Builder
		s.reg.WritePrometheus(&buf)
		parts = append(parts, obs.Exposition{Worker: self, Body: buf.String()})
	}
	parts = append(parts, c.ScrapeWorkers(r.Context(), scrapeTimeout)...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(obs.MergeExpositions(parts)))
}
