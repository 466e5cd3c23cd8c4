package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/core"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/progress"
	"mpstream/internal/runstate"
	"mpstream/internal/surface"
)

// Kind distinguishes the job shapes the service executes.
type Kind string

// Job kinds.
const (
	KindRun      Kind = "run"      // one configuration on one target
	KindSweep    Kind = "sweep"    // a parameter grid on one target
	KindOptimize Kind = "optimize" // a budgeted strategy search over a grid
	KindSurface  Kind = "surface"  // a bandwidth–latency surface on one target
	KindCheck    Kind = "check"    // re-measure a baseline and verdict the drift
)

// Status is the job lifecycle state. The machine is
// queued → running → done|failed|canceled; a queued job may go straight
// to canceled (or to failed, on shutdown) without ever running.
type Status string

// Job states, in lifecycle order.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Statuses lists every job state, in lifecycle order — the whitelist
// the ?state= jobs filter validates against.
func Statuses() []Status {
	return []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled}
}

// View is the externally visible snapshot of a job — the JSON shape
// /v1/jobs/{id} serves and run/sweep responses embed.
type View struct {
	ID     string `json:"id"`
	Kind   Kind   `json:"kind"`
	Status Status `json:"status"`
	Target string `json:"target"`
	// Trace is the request-scoped trace ID the job was submitted under
	// (minted server-side when the submitter sent none). It rides on
	// every job event and log line and propagates to fleet workers via
	// the X-Mpstream-Trace header.
	Trace    string    `json:"trace,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// TimeoutMS echoes the per-job deadline the submitter asked for
	// (after the server-side clamp); 0 means none.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Progress is the live done/total evaluation-unit snapshot while the
	// job runs, and the final snapshot once it finishes.
	Progress *progress.Snapshot `json:"progress,omitempty"`
	// StopReason is the canonical partial-result state
	// (runstate.Canceled or runstate.Deadline) of a canceled job; empty
	// for done and failed jobs.
	StopReason string `json:"stop_reason,omitempty"`
	// Cached reports that the result was served from the LRU cache
	// without re-running the simulator.
	Cached bool `json:"cached,omitempty"`
	// CachedPoints counts sweep grid points (or optimizer evaluations)
	// served from the run-result cache.
	CachedPoints int `json:"cached_points,omitempty"`
	// Fingerprint is the cache key of the job: the canonical (target,
	// config) hash for a run, or the canonical (target, base, space,
	// op, strategy, budget, seed) hash for an optimize.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Result carries a finished run job's measurement.
	Result *core.Result `json:"result,omitempty"`
	// Sweep carries a finished sweep job's ranked exploration — for a
	// canceled sweep, the ranking of the points evaluated before the
	// stop.
	Sweep *dse.Exploration `json:"sweep,omitempty"`
	// Optimize carries a finished optimize job's search outcome — for a
	// canceled or deadline-expired search, the partial result with the
	// best point found so far.
	Optimize *search.Result `json:"optimize,omitempty"`
	// Surface carries a finished surface job's bandwidth–latency
	// characterization — partial (Stopped tagged) for a canceled one.
	Surface *surface.Surface `json:"surface,omitempty"`
	// Check carries a finished check job's drift verdict against its
	// baseline — Partial-tagged for a canceled or deadline-expired
	// check, whose measured subset was still verdicted.
	Check *baseline.Report `json:"check,omitempty"`
	Error string           `json:"error,omitempty"`
	// Timing digests the job's recorded span tree once it finishes:
	// wall/queue/run split, critical path, slowest shard. Absent when
	// tracing is disabled.
	Timing *obs.TraceSummary `json:"timing,omitempty"`
	// Spans piggybacks the job's recorded spans on the final view —
	// only for jobs submitted under a remote parent span (a fleet
	// shard or remote eval), so the coordinator can graft the worker's
	// subtree into its own trace. Plain jobs never ship span payloads.
	Spans []obs.Span `json:"spans,omitempty"`
}

// Job is one queued unit of work. All mutation goes through the job's
// mutex; handlers only ever see copies via Snapshot.
type Job struct {
	mu   sync.Mutex
	view View
	seq  uint64 // submission order; immutable after add

	// run parameters
	cfg core.Config

	// sweep and optimize parameters
	base  core.Config
	space dse.Space
	op    kernel.Op
	// optimize parameters (normalized at submit time)
	sopts search.Options
	// surface parameters (defaults resolved at submit time)
	scfg surface.Config
	// lo and hi bound the job's units: grid points in the flat
	// enumeration order for a sweep, curves in pattern-major order for a
	// surface (the whole grid or ladder, or one shard of it for a fleet
	// worker's slice).
	lo, hi int
	// check parameters: the baseline entry snapshot taken at submit
	// time (a concurrent re-record or delete must not change what this
	// check compares against) and the resolved tolerance. A check
	// measures through cfg (run baselines) or scfg (surface baselines).
	bentry baseline.Entry
	btol   baseline.Tolerance
	// fleet marks jobs that may use a coordinator's fleet: plain sweeps
	// and surfaces are sharded across it, optimize and run checks send
	// their measurements to its remote-eval pool, surface checks shard
	// like surfaces. Run jobs and shard jobs never use it — a worker
	// must execute its slice locally, not re-shard it.
	fleet bool

	// timeout is the per-job execution deadline, applied when the job
	// starts running; 0 means none. Immutable after submit.
	timeout time.Duration

	// ctx is canceled when the job is canceled (baseCancel) or its
	// deadline expires (the start()-installed timer). Executors read it
	// through the value start() returns; the field itself is guarded by
	// mu. baseCancel is immutable after add and safe to call anytime.
	ctx         context.Context
	baseCancel  context.CancelFunc
	timerCancel context.CancelFunc // non-nil once start() armed a deadline

	// prog is the executor-maintained progress tracker; its atomic
	// snapshot rides along in every View.
	prog progress.Tracker

	// events is the bounded publish/subscribe log behind
	// GET /v1/jobs/{id}/events.
	events eventLog

	// onFinish — when non-nil — observes the final snapshot exactly
	// once, from finish. The server hooks its telemetry (jobs-finished
	// counters, duration histograms, completion log lines) here.
	// Immutable after add.
	onFinish func(View)

	// Span tracing (all nil when the server records no spans). The job
	// root span covers submit→finish, the queue span submit→start, the
	// run span start→finish; executors hang their own spans under the
	// run span through the context start() returns. remoteParent is
	// the upstream span ID this job was submitted under (a
	// coordinator's shard span) — when set, the final view piggybacks
	// the job's spans back to the submitter. rec is the server's
	// recorder; immutable after add.
	rec          *obs.Recorder
	remoteParent string
	spanJob      *obs.ActiveSpan
	spanQueue    *obs.ActiveSpan
	spanRun      *obs.ActiveSpan

	// done is closed exactly once when the job reaches a terminal state.
	done chan struct{}
}

// Snapshot returns a copy of the job's visible state, with the live
// progress snapshot attached.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	v := j.view
	j.mu.Unlock()
	ps := j.prog.Snapshot()
	v.Progress = &ps
	return v
}

// Done returns a channel closed when the job finishes (or fails).
func (j *Job) Done() <-chan struct{} { return j.done }

// Context returns the job's cancellation context: canceled when the job
// is canceled via Cancel/DELETE or its deadline expires.
func (j *Job) Context() context.Context {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctx
}

// rootSpanID names the job's root span ("" when tracing is off) — the
// anchor the trace endpoint filters the process-wide span store by.
func (j *Job) rootSpanID() string { return j.spanJob.ID() }

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return isTerminal(j.view.Status)
}

func isTerminal(s Status) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// ID returns the job's identifier.
func (j *Job) ID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view.ID
}

// start transitions the job to running and arms its deadline, returning
// the context the executor must run under. ok is false when the job is
// already terminal (canceled while queued) and must not execute.
func (j *Job) start() (context.Context, bool) {
	j.mu.Lock()
	if isTerminal(j.view.Status) {
		j.mu.Unlock()
		return nil, false
	}
	j.view.Status = StatusRunning
	j.view.Started = time.Now().UTC()
	// The queue span ends here; executor work nests under the run span
	// via the context returned below (StartSpan is a no-op without a
	// recorder and leaves j.ctx untouched).
	j.spanQueue.End()
	j.ctx, j.spanRun = obs.StartSpan(j.ctx, "job.run")
	if j.timeout > 0 {
		j.ctx, j.timerCancel = context.WithTimeout(j.ctx, j.timeout)
	}
	ctx := j.ctx
	j.mu.Unlock()
	j.publish(Event{Type: EventState, State: StatusRunning})
	return ctx, true
}

// cancelRequest asks the job to stop. A queued job lands in canceled
// immediately; a running one observes its context at the next
// evaluation-unit boundary; a terminal one is untouched (the request is
// idempotent). The returned status is the state observed at request
// time.
func (j *Job) cancelRequest() Status {
	j.mu.Lock()
	st := j.view.Status
	j.mu.Unlock()
	// Always cancel the context: a running executor stops at its next
	// check, and canceling an already-terminal job's context is a no-op.
	j.baseCancel()
	if st == StatusQueued {
		// The worker that later pops this job sees the terminal state and
		// skips it. If the worker won the race and just started, finish is
		// idempotent and the canceled context ends the run anyway.
		j.finish(StatusCanceled, func(v *View) { v.StopReason = runstate.Canceled })
	}
	return st
}

// finish records a terminal state and wakes waiters. mutate runs under
// the job lock to fill result fields. Idempotent: only the first call
// takes effect, so a panic-recovery path can finish defensively. The
// final snapshot is published as a result event before Done closes, so
// event subscribers always observe the terminal state.
func (j *Job) finish(status Status, mutate func(v *View)) {
	j.mu.Lock()
	if isTerminal(j.view.Status) {
		j.mu.Unlock()
		return
	}
	j.view.Status = status
	j.view.Finished = time.Now().UTC()
	if mutate != nil {
		mutate(&j.view)
	}
	// Close out the lifecycle spans (End is idempotent — a job
	// canceled while queued ends its queue span here instead of in
	// start) and digest the recorded tree into the view.
	j.spanRun.SetAttr("status", string(status))
	j.spanRun.End()
	j.spanQueue.End()
	j.spanJob.SetAttr("status", string(status))
	j.spanJob.End()
	if j.rec != nil {
		spans := obs.Descendants(j.rec.Spans(j.view.Trace), j.spanJob.ID())
		j.view.Timing = obs.Summarize(spans, j.spanJob.ID())
		if j.remoteParent != "" {
			j.view.Spans = spans
		}
	}
	timerCancel := j.timerCancel
	j.mu.Unlock()
	// Release the context resources: the deadline timer (if armed) and
	// the base cancellation.
	if timerCancel != nil {
		timerCancel()
	}
	j.baseCancel()
	final := j.Snapshot()
	j.publish(Event{Type: EventResult, State: status, Result: &final})
	if j.onFinish != nil {
		j.onFinish(final)
	}
	close(j.done)
}

// fail lands the job in failed with err's message — or, when err is a
// cancellation or deadline (the job's context ended before a result),
// in canceled with no payload.
func (j *Job) fail(err error) {
	if st := runstate.FromErr(err); st != "" {
		j.finishStopped(st, nil)
		return
	}
	j.finish(StatusFailed, func(v *View) { v.Error = err.Error() })
}

// finishStopped lands the job in canceled carrying whatever partial
// payload mutate attaches, tagging the canonical stop reason read from
// the (ended) job context; reason overrides when non-empty.
func (j *Job) finishStopped(reason string, mutate func(v *View)) {
	if reason == "" {
		reason = runstate.FromContext(j.Context())
	}
	if reason == "" {
		reason = runstate.Canceled
	}
	j.finish(StatusCanceled, func(v *View) {
		v.StopReason = reason
		if mutate != nil {
			mutate(v)
		}
	})
}

// jobStore indexes jobs by id, bounded to maxRetained entries: the
// service is long-lived, so finished jobs (and their result payloads)
// must not accumulate forever. Oldest finished jobs are evicted first;
// queued and running jobs are never evicted.
type jobStore struct {
	mu          sync.Mutex
	seq         uint64
	jobs        map[string]*Job
	order       []string // insertion order, oldest first
	maxRetained int
	// onFinish is copied into every job at add; see Job.onFinish. Set
	// once before the store serves submissions.
	onFinish func(View)
	// rec is the server's span recorder, copied into every job at add;
	// nil (no span recording) when telemetry is disabled. Set once
	// before the store serves submissions.
	rec *obs.Recorder
}

func newJobStore(maxRetained int) *jobStore {
	return &jobStore{jobs: make(map[string]*Job), maxRetained: maxRetained}
}

// add registers a new job of the given kind and returns it with an
// assigned id in queued state. timeout is the per-job deadline, armed
// when the job starts running. trace is the request-scoped trace ID
// the job carries through its lifetime (the job context, every event,
// and fleet fan-out all read it back).
func (s *jobStore) add(kind Kind, target string, timeout time.Duration, trace, parentSpan string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	base := obs.WithTrace(context.Background(), trace)
	if s.rec != nil {
		base = obs.WithRecorder(base, s.rec)
		if parentSpan != "" {
			base = obs.WithSpanParent(base, parentSpan)
		}
	}
	ctx, cancel := context.WithCancel(base)
	// The job root span opens at submit; the queue span nests under it
	// and ends when the job starts running. Both are no-ops when the
	// store records no spans.
	ctx, spanJob := obs.StartSpan(ctx, "job",
		"job", id, "kind", string(kind), "target", target)
	_, spanQueue := obs.StartSpan(ctx, "job.queue")
	j := &Job{
		view: View{
			ID:        id,
			Kind:      kind,
			Status:    StatusQueued,
			Target:    target,
			Trace:     trace,
			Created:   time.Now().UTC(),
			TimeoutMS: timeout.Milliseconds(),
		},
		seq:          s.seq,
		timeout:      timeout,
		ctx:          ctx,
		baseCancel:   cancel,
		onFinish:     s.onFinish,
		rec:          s.rec,
		remoteParent: parentSpan,
		spanJob:      spanJob,
		spanQueue:    spanQueue,
		done:         make(chan struct{}),
	}
	j.events.job = j.view.ID
	j.events.trace = trace
	s.jobs[j.view.ID] = j
	s.order = append(s.order, j.view.ID)
	s.evictLocked()
	return j
}

// evictLocked drops the oldest finished jobs while over capacity.
// Requires s.mu held.
func (s *jobStore) evictLocked() {
	if s.maxRetained <= 0 || len(s.jobs) <= s.maxRetained {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > s.maxRetained && j.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, s.order[i])
	}
	s.order = kept
}

// get looks a job up by id.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// remove deletes a job (used when the queue rejects a submission),
// including its order entry — rejections must not grow order forever.
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	// The id is almost always the most recent append; scan from the end.
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// snapshots returns job views in stable submit-time order (by
// submission sequence, not lexical id — ids wrap their fixed width past
// a million jobs), optionally filtered to one state, optionally limited
// to the most recent limit entries (still oldest first). state "" and
// limit <= 0 disable the respective filter. total is the retained job
// count before filtering; matched the count after the state filter but
// before the limit — the pair lets a truncated listing say what it
// dropped.
func (s *jobStore) snapshots(state Status, limit int) (views []View, total, matched int) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	total = len(jobs)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	views = make([]View, 0, len(jobs))
	for _, j := range jobs {
		v := j.Snapshot()
		if state != "" && v.Status != state {
			continue
		}
		views = append(views, v)
	}
	matched = len(views)
	if limit > 0 && len(views) > limit {
		views = views[len(views)-limit:]
	}
	return views, total, matched
}

// counts tallies jobs by status without copying full views. Every
// status appears in the map — zeros included — so consumers (healthz,
// the metrics collector) see a stable key set.
func (s *jobStore) counts() map[Status]int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make(map[Status]int, 5)
	for _, st := range Statuses() {
		out[st] = 0
	}
	for _, j := range jobs {
		j.mu.Lock()
		out[j.view.Status]++
		j.mu.Unlock()
	}
	return out
}
