// Package service is the benchmark-as-a-service layer: a long-lived
// server that schedules MP-STREAM runs, design-space sweeps, budgeted
// optimizer searches (dse/search) and bandwidth–latency surface
// measurements (internal/surface) onto a bounded worker pool, caches
// results by canonical fingerprint, and exposes everything over an
// HTTP JSON API (cmd/mpserved). It turns the one-shot CLI workflow
// into the programmatic exploration service the paper's
// design-space-exploration framing calls for.
//
// Concurrency model: Submit places a job on a bounded queue; Workers
// goroutines (GOMAXPROCS by default) pull jobs and execute them. Each
// execution builds its own device instances — devices carry simulator
// state and are never shared across goroutines. Sweep jobs additionally
// fan their grid points out over dse.EvalParallel, and every grid point
// consults the same result cache a /v1/run request does, so sweeps and
// runs share work transparently.
//
// Caching happens at two granularities. The run-result LRU holds
// individual simulations keyed by (target, canonical config) and is
// shared by runs, sweep grid points and optimizer evaluations. The
// optimizer and surface LRUs hold whole request outcomes keyed by the
// full canonical request — sound because seeded searches and surface
// generations over a deterministic simulator reproduce exactly.
// Identical run, optimize and surface requests are single-flighted:
// concurrent duplicates wait for one leader and then read its cached
// result.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/runstate"
	"mpstream/internal/shard"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// Defaults for Options zero values, and the admission limits every
// server enforces.
const (
	DefaultQueueDepth   = 256
	DefaultCacheEntries = 512
	// DefaultMaxSweepPoints bounds a single sweep's grid so one request
	// cannot monopolize the service.
	DefaultMaxSweepPoints = 4096
	// DefaultMaxOptimizeBudget bounds a single optimize job's unique
	// simulations. The *space* of an optimize job may be far larger
	// than a sweep's (adaptive search is the point), but the work done
	// is capped by the budget.
	DefaultMaxOptimizeBudget = 4096
	// DefaultMaxJobsRetained bounds the job index in a long-lived
	// server; the oldest finished jobs are evicted beyond it.
	DefaultMaxJobsRetained = 1024
	// DefaultMaxNTimes bounds a run's repetition count.
	DefaultMaxNTimes = 100
	// DefaultMaxVerifyArrayBytes bounds the arrays a run may verify;
	// larger sweeps must set verify false, as the experiments layer
	// does. Verification no longer allocates the arrays (cl buffers
	// hold one element); the bound is kept as admission behaviour.
	DefaultMaxVerifyArrayBytes = 256 << 20
	// DefaultMaxSurfacePoints bounds one surface request's ladder
	// (patterns x ratios x rates).
	DefaultMaxSurfacePoints = 256
	// DefaultMaxSurfaceWindowTxns bounds the transactions simulated per
	// ladder point.
	DefaultMaxSurfaceWindowTxns = 1 << 20
	// DefaultMaxTimeout is the ceiling a request's timeout_ms is clamped
	// to: per-job deadlines exist to stop hopeless work early, not to
	// extend it indefinitely.
	DefaultMaxTimeout = 15 * time.Minute
)

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: server closed")

// Options configures a Server. The zero value is a production-shaped
// default: GOMAXPROCS workers, a 256-deep queue, a 512-entry cache and
// the paper's four simulated targets.
type Options struct {
	// Workers bounds concurrently executing jobs; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued-but-not-running jobs; <= 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// CacheEntries bounds the result cache; 0 means DefaultCacheEntries,
	// negative disables caching.
	CacheEntries int
	// SweepWorkers bounds the per-sweep grid fan-out; <= 0 divides
	// GOMAXPROCS across the job workers so concurrent sweeps cannot
	// oversubscribe the CPU to Workers x GOMAXPROCS goroutines.
	SweepWorkers int
	// MaxTimeout clamps per-job deadlines (the requests' timeout_ms
	// field): a requested deadline beyond it is silently shortened to
	// it. <= 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// NewDevice resolves a target id to a fresh device instance; nil
	// means targets.ByID. Tests inject counting or blocking factories
	// here.
	NewDevice func(id string) (device.Device, error)
	// TargetInfos lists the devices /v1/targets reports, resolved once
	// at startup; it is also the submit-time target whitelist, so a
	// custom NewDevice serving extra targets must list them here. Nil
	// derives the list from the paper's four targets.
	TargetInfos func() []device.Info
	// Cluster attaches a fleet coordinator: sweep and surface jobs are
	// sharded across its registered workers (falling back to local
	// execution while the fleet is empty), optimize jobs farm their
	// point evaluations out through its remote-eval pool, and the
	// /v1/cluster/{register,heartbeat,workers} endpoints come alive.
	// Nil means a standalone server. The server does not own the
	// coordinator; the caller Closes it.
	Cluster *cluster.Coordinator
	// Logger receives the server's structured diagnostics; nil discards
	// them.
	Logger *slog.Logger
	// Origin labels this process's spans in merged fleet traces (the
	// worker ID on workers, "coordinator" on a coordinator); "" means
	// the spans carry no origin (standalone server).
	Origin string
	// DisableMetrics turns all metric instrumentation and span
	// recording off (/v1/metrics serves 404) — the uninstrumented
	// baseline the overhead benchmark compares against.
	DisableMetrics bool
	// Baselines is the named-reference store behind /v1/baselines and
	// /v1/check; nil means an in-memory store (no durability). Pass a
	// baseline.DirStore (mpserved -data-dir) for baselines that survive
	// restarts. The server does not own the store's directory; it only
	// reads and writes entries.
	Baselines baseline.Store
	// CheckInterval, when positive, starts the drift sentinel: a
	// background loop re-checking every registered baseline on this
	// period (mpserved -check-interval). Checks run through the normal
	// job queue — and through the fleet when a coordinator with alive
	// workers is attached.
	CheckInterval time.Duration
	// CheckPerturb != 0 scales every check's measured metrics
	// (bandwidths x f, latencies / f) before the verdict — a drift-
	// injection drill knob (mpserved -check-perturb) for rehearsing the
	// alerting path on an otherwise deterministic simulator. It touches
	// only check verdicts, never stored results or caches.
	CheckPerturb float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = DefaultCacheEntries
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = runtime.GOMAXPROCS(0) / o.Workers
		if o.SweepWorkers < 1 {
			o.SweepWorkers = 1
		}
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = DefaultMaxTimeout
	}
	if o.NewDevice == nil {
		o.NewDevice = targets.ByID
	}
	if o.Baselines == nil {
		o.Baselines = baseline.NewMemStore()
	}
	if o.TargetInfos == nil {
		o.TargetInfos = func() []device.Info {
			devs := targets.All()
			infos := make([]device.Info, len(devs))
			for i, d := range devs {
				infos[i] = d.Info()
			}
			return infos
		}
	}
	return o
}

// Server schedules benchmark jobs onto a worker pool and caches their
// results. Create with New, serve its Handler, and Close it when done.
type Server struct {
	opts      Options
	infos     []device.Info // target list, resolved once at startup
	jobs      *jobStore
	queue     chan *Job
	cache     *resultCache
	optCache  *optimizeCache
	surfCache *surfaceCache
	start     time.Time
	reg       *obs.Registry // nil when Options.DisableMetrics
	rec       *obs.Recorder // span recorder; nil when Options.DisableMetrics
	log       *slog.Logger  // never nil; NopLogger by default

	// flight deduplicates concurrently executing identical run, optimize
	// and surface jobs (see resolve): fingerprint -> channel closed when
	// the leading execution finishes.
	flightMu sync.Mutex
	flight   map[string]chan struct{}

	// checkMu guards the baseline monitor state: the latest report per
	// baseline (the drift-ratio and last-check-age gauges read it) and
	// the sentinel's in-flight set (one outstanding check per baseline).
	checkMu       sync.Mutex
	checkState    map[string]baseline.Report
	checkInflight map[string]bool
	// alerts is the bounded feed of non-pass verdicts behind
	// GET /v1/baselines/alerts.
	alerts alertLog

	// closeMu orders submissions against Close: enqueue holds the read
	// lock, so once Close holds the write lock and sets closed, nothing
	// can slip into the queue after the drain.
	closeMu   sync.RWMutex
	closed    bool
	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		infos:     opts.TargetInfos(),
		jobs:      newJobStore(DefaultMaxJobsRetained),
		queue:     make(chan *Job, opts.QueueDepth),
		cache:     newResultCache(opts.CacheEntries),
		optCache:  newOptimizeCache(opts.CacheEntries),
		surfCache: newSurfaceCache(opts.CacheEntries),
		flight:    make(map[string]chan struct{}),
		start:     time.Now(),
		quit:      make(chan struct{}),

		checkState:    make(map[string]baseline.Report),
		checkInflight: make(map[string]bool),
	}
	s.initObs(opts)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.CheckInterval > 0 {
		s.wg.Add(1)
		go s.sentinel(opts.CheckInterval)
	}
	return s
}

// Close stops the worker pool. Running jobs finish; jobs still queued
// are failed so their Done channels close and no waiter deadlocks.
// Submissions racing Close either land before the drain or get
// ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.closeOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			j.finish(StatusFailed, func(v *View) { v.Error = "service shut down before the job ran" })
		default:
			return
		}
	}
}

// CacheStats reports result-cache telemetry.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// CancelJob requests cancellation of a job. A queued job lands in
// canceled immediately; a running one stops at its next evaluation-unit
// boundary (point, search step, ladder rung) and lands in canceled
// carrying its partial results; a terminal job is untouched — the call
// is idempotent. ok is false for an unknown id.
func (s *Server) CancelJob(id string) (*Job, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return nil, false
	}
	j.cancelRequest()
	return j, true
}

// traceFor reads the request-scoped trace ID from a submission
// context, minting a fresh one when the caller carried none — every
// job has a trace from birth.
func traceFor(ctx context.Context) string {
	if ctx != nil {
		if trace := obs.SanitizeTraceID(obs.TraceID(ctx)); trace != "" {
			return trace
		}
	}
	return obs.NewTraceID()
}

// spanParentFor reads the upstream parent span ID from a submission
// context — set by the HTTP middleware when a coordinator stamped its
// shard span onto the request. "" for direct submissions.
func spanParentFor(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	return obs.SpanParent(ctx)
}

// SubmitRun validates and enqueues one configuration on one target.
// timeout bounds the job's execution once it starts running (clamped to
// Options.MaxTimeout; 0 means none). ctx scopes the submission itself
// (its trace ID is inherited by the job), not the job's execution.
func (s *Server) SubmitRun(ctx context.Context, target string, cfg core.Config, timeout time.Duration) (*Job, error) {
	cfg, err := s.admitRun(target, cfg)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, KindRun, target, timeout, func(j *Job) {
		j.cfg = cfg
		j.view.Fingerprint = cfg.Fingerprint(target)
	})
}

// SubmitSweep validates and enqueues a parameter grid on one target.
// timeout bounds the job's execution once it starts running (clamped to
// Options.MaxTimeout; 0 means none). A nil rng sweeps the whole grid,
// sharded across the fleet on a coordinator with alive workers; a
// non-nil rng sweeps only the points [lo, hi) of the grid's flat
// enumeration — the unit a coordinator assigns one worker — and always
// runs locally.
func (s *Server) SubmitSweep(ctx context.Context, target string, base core.Config, space dse.Space, op kernel.Op, rng *shard.Range, timeout time.Duration) (*Job, error) {
	lo, hi := 0, space.Size()
	if rng != nil {
		if rng.Lo < 0 || rng.Hi < rng.Lo || rng.Hi > hi {
			return nil, fmt.Errorf("service: sweep shard [%d,%d) out of the %d-point grid", rng.Lo, rng.Hi, hi)
		}
		lo, hi = rng.Lo, rng.Hi
	}
	base.Ops = []kernel.Op{op}
	base, err := s.admitRun(target, base)
	if err != nil {
		return nil, err
	}
	// The points limit bounds the work this server actually performs:
	// a shard is charged its slice, a plain sweep its whole grid.
	if n := hi - lo; n > DefaultMaxSweepPoints {
		return nil, fmt.Errorf("service: sweep grid has %d points, limit %d", n, DefaultMaxSweepPoints)
	}
	return s.submit(ctx, KindSweep, target, timeout, func(j *Job) {
		j.base, j.space, j.op = base, space, op
		j.lo, j.hi, j.fleet = lo, hi, rng == nil
	})
}

// SubmitOptimize validates and enqueues a budgeted strategy search
// over a parameter grid on one target. Unlike SubmitSweep the grid
// itself may be arbitrarily large — adaptive strategies exist exactly
// so the whole grid need not be simulated — but the effective
// evaluation budget is bounded by MaxOptimizeBudget.
func (s *Server) SubmitOptimize(ctx context.Context, target string, base core.Config, space dse.Space, op kernel.Op, opts search.Options, timeout time.Duration) (*Job, error) {
	base.Ops = []kernel.Op{op}
	base, err := s.admitRun(target, base)
	if err != nil {
		return nil, err
	}
	strat, err := search.Lookup(opts.Strategy)
	if err != nil {
		return nil, err
	}
	opts.Strategy = strat.Name()
	// Canonicalize the objective ("gbps" and "" spell the same metric)
	// so equivalent requests fingerprint identically.
	obj, err := search.ParseObjective(opts.Objective)
	if err != nil {
		return nil, err
	}
	opts.Objective = obj
	if opts.Budget < 0 {
		return nil, fmt.Errorf("service: optimize budget %d must be >= 0 (0 means the full space)", opts.Budget)
	}
	// Normalize to the effective budget so "0" and "the exact space
	// size" fingerprint identically.
	if size := space.Size(); opts.Budget == 0 || opts.Budget > size {
		opts.Budget = size
	}
	if opts.Budget > DefaultMaxOptimizeBudget {
		return nil, fmt.Errorf("service: optimize budget %d exceeds limit %d (pass an explicit budget)",
			opts.Budget, DefaultMaxOptimizeBudget)
	}
	return s.submit(ctx, KindOptimize, target, timeout, func(j *Job) {
		j.base, j.space, j.op, j.sopts = base, space, op, opts
		// The search stays local; its evaluations may use the fleet.
		j.fleet = true
		j.view.Fingerprint = optimizeFingerprint(target, base, space, op, opts)
	})
}

// SubmitSurface validates and enqueues a bandwidth–latency surface
// measurement on one target. The configuration is canonicalized
// (defaults resolved) before fingerprinting so equivalent spellings
// share one cache entry. A nil rng measures the whole ladder, its
// curves sharded across the fleet on a coordinator with alive workers;
// a non-nil rng measures only the curves [lo, hi) in pattern-major
// order — the unit a coordinator assigns one worker — and always runs
// locally.
func (s *Server) SubmitSurface(ctx context.Context, target string, cfg surface.Config, rng *shard.Range, timeout time.Duration) (*Job, error) {
	lo, hi := 0, cfg.CurveCount()
	if rng != nil {
		if rng.Lo < 0 || rng.Hi < rng.Lo || rng.Hi > hi {
			return nil, fmt.Errorf("service: surface shard [%d,%d) out of the %d-curve ladder", rng.Lo, rng.Hi, hi)
		}
		lo, hi = rng.Lo, rng.Hi
	}
	cfg, err := s.admitSurface(target, cfg)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, KindSurface, target, timeout, func(j *Job) {
		j.scfg, j.lo, j.hi, j.fleet = cfg, lo, hi, rng == nil
		j.view.Fingerprint = surfaceFingerprint(target, cfg, lo, hi)
	})
}

// surfaceFingerprint digests a whole surface request. The generator is
// deterministic, so equal fingerprints reproduce equal surfaces and
// whole-surface caching is sound. A full-ladder request keeps the
// legacy digest; a curve shard folds its range in, so a shard and the
// full surface never collide in the cache.
func surfaceFingerprint(target string, cfg surface.Config, lo, hi int) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		b = []byte(fmt.Sprintf("unmarshalable:%s:%#v", err, cfg))
	}
	h := sha256.New()
	h.Write([]byte("surface"))
	h.Write([]byte{0})
	h.Write([]byte(target))
	h.Write([]byte{0})
	h.Write(b)
	if lo != 0 || hi != cfg.CurveCount() {
		fmt.Fprintf(h, "%cshard:%d-%d", 0, lo, hi)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// optimizeFingerprint digests a whole optimize request. The seeded
// search is deterministic, so equal fingerprints reproduce equal
// results — which makes caching whole optimizer runs as sound as
// caching individual simulations.
func optimizeFingerprint(target string, base core.Config, space dse.Space, op kernel.Op, opts search.Options) string {
	req := struct {
		Base    core.Config    `json:"base"`
		Space   dse.Space      `json:"space"`
		Op      kernel.Op      `json:"op"`
		Options search.Options `json:"options"`
	}{base.Canonical(), space, op, opts}
	b, err := json.Marshal(req)
	if err != nil {
		// Only reachable with an enum outside its range; digest the Go
		// representation so distinct invalid requests never collide.
		b = []byte(fmt.Sprintf("unmarshalable:%s:%#v", err, req))
	}
	h := sha256.New()
	h.Write([]byte("optimize"))
	h.Write([]byte{0})
	h.Write([]byte(target))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// checkTarget validates a target id against the (startup-cached) info
// list — a membership check, not a device construction, so cached runs
// never touch the simulator at all.
func (s *Server) checkTarget(id string) (device.Info, error) {
	for _, inf := range s.infos {
		if inf.ID == id {
			return inf, nil
		}
	}
	return device.Info{}, fmt.Errorf("service: unknown target %q", id)
}

// admitRun is the admission check for run units — runs, the bases of
// sweeps and searches, run checks: the target must be served and the
// canonical configuration valid, and its resource cost is bounded so a
// single request cannot exhaust the host or pin a worker indefinitely.
// Grid and search axes never change size, repetitions or verification,
// so bounding a base bounds every point derived from it.
func (s *Server) admitRun(target string, cfg core.Config) (core.Config, error) {
	info, err := s.checkTarget(target)
	if err != nil {
		return cfg, err
	}
	cfg = cfg.Canonical()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if cfg.NTimes > DefaultMaxNTimes {
		return cfg, fmt.Errorf("service: ntimes %d exceeds limit %d", cfg.NTimes, DefaultMaxNTimes)
	}
	if info.MemBytes > 0 && cfg.ArrayBytes > info.MemBytes {
		return cfg, fmt.Errorf("service: array bytes %d exceed %s device memory %d",
			cfg.ArrayBytes, info.ID, info.MemBytes)
	}
	if cfg.Verify && cfg.ArrayBytes > DefaultMaxVerifyArrayBytes {
		return cfg, fmt.Errorf("service: verified arrays are limited to %d bytes (got %d); set verify false for timing-only runs",
			DefaultMaxVerifyArrayBytes, cfg.ArrayBytes)
	}
	return cfg, nil
}

// admitSurface is the admission check for surface units — surfaces,
// curve shards, surface checks: the target must be served, the
// defaulted configuration valid, and the ladder, window and idle probe
// within the server's limits.
func (s *Server) admitSurface(target string, cfg surface.Config) (surface.Config, error) {
	if _, err := s.checkTarget(target); err != nil {
		return cfg, err
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if n := cfg.Points(); n > DefaultMaxSurfacePoints {
		return cfg, fmt.Errorf("service: surface ladder has %d points, limit %d", n, DefaultMaxSurfacePoints)
	}
	if cfg.WindowTxns > DefaultMaxSurfaceWindowTxns {
		return cfg, fmt.Errorf("service: surface window of %d transactions exceeds limit %d",
			cfg.WindowTxns, DefaultMaxSurfaceWindowTxns)
	}
	// The idle-latency chase is unbounded by the window, so it gets the
	// same ceiling: without it one request could pin a worker on an
	// arbitrarily long serial simulation.
	if cfg.ProbeHops > DefaultMaxSurfaceWindowTxns {
		return cfg, fmt.Errorf("service: surface probe of %d hops exceeds limit %d",
			cfg.ProbeHops, DefaultMaxSurfaceWindowTxns)
	}
	return cfg, nil
}

// submit is the step every Submit* ends with once its request is
// admitted: validate the deadline (negatives are rejected, 0 means
// none, anything above MaxTimeout is clamped down to it), store the
// job, let fill set its parameters under the job lock, and enqueue it.
func (s *Server) submit(ctx context.Context, kind Kind, target string, timeout time.Duration, fill func(j *Job)) (*Job, error) {
	if timeout < 0 {
		return nil, fmt.Errorf("service: timeout %v must be >= 0 (0 means none)", timeout)
	}
	timeout = min(timeout, s.opts.MaxTimeout)
	j := s.jobs.add(kind, target, timeout, traceFor(ctx), spanParentFor(ctx))
	j.mu.Lock()
	fill(j)
	j.mu.Unlock()
	if err := s.enqueue(j); err != nil {
		return nil, err
	}
	return j, nil
}

// enqueue pushes a stored job onto the bounded queue, undoing the store
// on overflow or after Close. Holding closeMu.RLock across the push
// guarantees every successfully queued job is visible to Close's drain.
func (s *Server) enqueue(j *Job) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		s.jobs.remove(j.ID())
		return ErrClosed
	}
	select {
	case s.queue <- j:
		s.jobSubmitted(j)
		return nil
	default:
		s.jobs.remove(j.ID())
		return ErrQueueFull
	}
}

// worker pulls jobs until Close. quit is checked with priority first:
// a two-way select with both channels ready picks randomly, which would
// let workers keep draining a full queue long after Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.execute(j)
		}
	}
}

// execute runs one job to a terminal state under the job's context
// (canceled by DELETE /v1/jobs/{id}, expired by its timeout_ms
// deadline). A panic in the simulator (or a hostile configuration that
// slipped past validation) fails the job instead of killing the whole
// server.
func (s *Server) execute(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			j.finish(StatusFailed, func(v *View) {
				v.Error = fmt.Sprintf("job panicked: %v", r)
			})
		}
	}()
	ctx, ok := j.start()
	if !ok {
		// Canceled while queued: already terminal, nothing to run.
		return
	}
	snap := j.Snapshot()
	if s.reg != nil && !snap.Started.Before(snap.Created) {
		s.reg.Histogram("mpstream_job_queue_wait_seconds",
			"Time jobs spent queued before a worker claimed them.",
			obs.DurationBuckets, "kind", string(snap.Kind)).
			Observe(snap.Started.Sub(snap.Created).Seconds())
	}
	kind := snap.Kind
	if kind == KindCheck {
		// A check is its baseline's run or surface measurement with the
		// caches bypassed and a verdict at the end.
		kind = KindSurface
		if j.bentry.Kind == baseline.KindRun {
			kind = KindRun
		}
	}
	switch kind {
	case KindRun:
		s.executeRun(ctx, j)
	case KindSweep:
		s.executeSweep(ctx, j)
	case KindOptimize:
		s.executeOptimize(ctx, j)
	case KindSurface:
		s.executeSurface(ctx, j)
	default:
		j.finish(StatusFailed, func(v *View) { v.Error = fmt.Sprintf("unknown job kind %q", v.Kind) })
	}
}

// rehome returns a shallow copy of a cached result with its Config
// replaced by the requesting configuration, so a cache hit reads
// exactly like a fresh evaluation no matter which canonically-equal
// spelling primed the entry. The cached entry stays untouched.
func rehome(res *core.Result, cfg core.Config) *core.Result {
	r := *res
	r.Config = cfg
	return &r
}

// claimFlight registers fp as in-flight. leader is true for the caller
// that should execute; followers get the leader's completion channel.
func (s *Server) claimFlight(fp string) (leader bool, ch chan struct{}) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if ch, ok := s.flight[fp]; ok {
		return false, ch
	}
	ch = make(chan struct{})
	s.flight[fp] = ch
	return true, ch
}

// releaseFlight unregisters fp and wakes the followers.
func (s *Server) releaseFlight(fp string, ch chan struct{}) {
	s.flightMu.Lock()
	delete(s.flight, fp)
	s.flightMu.Unlock()
	close(ch)
}

// resolve answers a job from the whole-result cache c or — as the one
// leader among concurrent jobs with the same fingerprint fp — from
// measure, storing the answer when complete approves it (nil approves
// every answer): partial results never prime a whole-result cache.
// cached reports a cache hit.
//
// A follower waits for its leader and re-reads the cache. A canceled
// follower returns its context's error and never touches the leader,
// which keeps measuring for everyone else. Conversely, a leader that
// fails or stops releases the flight without storing, so one woken
// follower finds the cache still cold, claims the flight, and takes
// over — followers are never wedged behind a dead leader. A nil or
// disabled cache has nothing to hand followers, so measure simply runs:
// that is how checks bypass the caches, and how identical jobs run in
// parallel with caching off.
func resolve[V any](ctx context.Context, s *Server, c *lruCache[V], fp string,
	measure func() (V, error), complete func(V) bool) (v V, cached bool, err error) {
	if !c.enabled() {
		v, err = measure()
		return v, false, err
	}
	for {
		if hit, ok := c.get(fp); ok {
			return hit, true, nil
		}
		leader, ch := s.claimFlight(fp)
		if !leader {
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
		}
		// The previous leader may have filled the cache between our miss
		// and the claim; re-check so a promoted follower never re-measures.
		if hit, ok := c.get(fp); ok {
			s.releaseFlight(fp, ch)
			return hit, true, nil
		}
		defer s.releaseFlight(fp, ch)
		if v, err = measure(); err == nil && (complete == nil || complete(v)) {
			c.put(fp, v)
		}
		return v, false, err
	}
}

// runUnit measures one configuration for job j — the fleet-or-local
// rule for run units. A fleet-eligible job on a coordinator whose fleet
// serves the target sends the measurement to a worker through the
// remote-eval pool; a fleet-level failure (no alive workers, transport
// exhausted) falls back to measuring locally on dev (nil builds a fresh
// device). A worker-reported error is a real outcome — an infeasible
// design, or the job's context ending — and is returned as is. sp is
// the caller's evaluation span; it records where the measurement ran.
func (s *Server) runUnit(ctx context.Context, sp *obs.ActiveSpan, j *Job, dev device.Device, cfg core.Config) (*core.Result, error) {
	snap := j.Snapshot()
	if fl := s.opts.Cluster; j.fleet && fl != nil && fl.HasWorkers(snap.Target) {
		sp.SetAttr("remote", "true")
		res, err := fl.Eval(ctx, snap.Target, cfg, snap.TimeoutMS)
		if err == nil {
			return rehome(res, cfg), nil
		}
		if !errors.Is(err, cluster.ErrUnavailable) {
			return nil, err
		}
		sp.SetAttr("remote", "fallback")
	}
	if dev == nil {
		var err error
		if dev, err = s.opts.NewDevice(snap.Target); err != nil {
			return nil, err
		}
	}
	return core.RunContext(ctx, dev, cfg)
}

// surfaceUnit measures job j's ladder curves [lo, hi) — the
// fleet-or-local rule for surface units. A fleet-eligible job on a
// coordinator shards the curves across the fleet's workers; a fleet
// that turns out unavailable falls back to measuring locally on a fresh
// device. phase labels the job's progress while it measures locally.
func (s *Server) surfaceUnit(ctx context.Context, j *Job, phase string) (*surface.Surface, error) {
	snap := j.Snapshot()
	if fl := s.opts.Cluster; j.fleet && fl != nil {
		j.prog.SetPhase(phase + ":fleet")
		req := cluster.SurfaceRequest{Target: snap.Target, Config: &j.scfg, TimeoutMS: snap.TimeoutMS}
		res, stopped, err := fl.Surface(ctx, req, s.fleetHooks(j))
		switch {
		case err == nil:
			return res, nil
		case stopped != "":
			// Canceled before any shard landed: nothing was measured.
			return nil, ctx.Err()
		case !errors.Is(err, cluster.ErrUnavailable):
			return nil, err
		}
		j.prog.SetPhase(phase)
	}
	dev, err := s.opts.NewDevice(snap.Target)
	if err != nil {
		return nil, err
	}
	// The observer runs on the measuring goroutine, once per ladder rung.
	observe := func(pat mem.Pattern, readFrac float64, p surface.Point) {
		j.publishPoint(PointEvent{
			Label:     fmt.Sprintf("%s/r%.2g@%.2g", surface.PatternLabel(pat), readFrac, p.Rate),
			GBps:      p.AchievedGBps,
			Feasible:  true,
			LatencyNs: p.LatencyNs,
		})
	}
	return core.RunSurfaceShard(ctx, dev, j.scfg, j.lo, j.hi, observe)
}

// maxKernelGBps is the best bandwidth across a run's kernels, the
// scalar a run job feeds its progress tracker.
func maxKernelGBps(res *core.Result) float64 {
	best := 0.0
	for _, kr := range res.Kernels {
		if kr.GBps > best {
			best = kr.GBps
		}
	}
	return best
}

// executeRun measures one configuration. A run job resolves it from
// the run-result cache (single-flight) and measures a miss locally; a
// run check bypasses the cache, measures on the fleet when one is
// attached, and verdicts the fresh result against its baseline. A
// canceled or deadline-expired run lands in canceled with no payload —
// a single run is one evaluation unit.
func (s *Server) executeRun(ctx context.Context, j *Job) {
	snap := j.Snapshot()
	check := snap.Kind == KindCheck
	cache, phase, label, span := s.cache, "run", dse.ConfigLabel(j.cfg), "run.eval"
	if check {
		cache, phase, label, span = nil, "check:run", "check:"+j.bentry.Name, "check.eval"
	}
	j.prog.SetTotal(1)
	j.prog.SetPhase(phase)
	res, cached, err := resolve(ctx, s, cache, snap.Fingerprint, func() (*core.Result, error) {
		rctx, sp := obs.StartSpan(ctx, span, "label", label)
		defer sp.End()
		return s.runUnit(rctx, sp, j, nil, j.cfg)
	}, nil)
	if err != nil {
		j.fail(err)
		return
	}
	if cached {
		res = rehome(res, j.cfg)
	}
	gbps := maxKernelGBps(res)
	j.publishPoint(PointEvent{Label: label, GBps: gbps, Feasible: true, Cached: cached})
	var rep *baseline.Report
	if check {
		rep = s.verdict(j, baseline.FromResult(res), false)
	}
	j.finish(StatusDone, func(v *View) { v.Cached, v.Result, v.Check = cached, res, rep })
}

// executeSweep evaluates a grid (or one shard of it) and ranks it. A
// canceled or deadline-expired sweep ranks the points evaluated before
// the stop and lands in canceled.
func (s *Server) executeSweep(ctx context.Context, j *Job) {
	total := j.hi - j.lo
	j.prog.SetTotal(total)
	ex, cachedPoints, stopped, err := s.sweepUnits(ctx, j)
	if err != nil {
		j.fail(err)
		return
	}
	if stopped != "" {
		j.finishStopped(stopped, func(v *View) { v.Sweep, v.CachedPoints = ex, cachedPoints })
		return
	}
	// Reconcile aggregate progress: fleet worker event streams are
	// telemetry (a slow stream drops point events), so the counter can
	// undershoot; a done job always reads done == total.
	j.prog.Step(total - j.prog.Snapshot().Done)
	j.finish(StatusDone, func(v *View) { v.Sweep, v.CachedPoints = ex, cachedPoints })
}

// sweepUnits evaluates job j's grid points [lo, hi) — the
// fleet-or-local rule for sweeps — returning the ranking, the points
// served from the run-result cache, and the stop tag.
//
// A fleet-eligible sweep on a coordinator is sharded across the
// fleet's workers. The merged ranking is byte-identical to a local
// sweep: shards are contiguous grid ranges, each worker ranks with the
// same stable sort, and the coordinator's merge preserves
// equal-bandwidth order. A fleet that turns out unavailable falls back
// to local evaluation with per-point cache integration: points already
// in the result cache are reused, the misses fan out over
// dse.EvalParallelContext, and fresh feasible results are inserted back
// so later runs and sweeps hit. The assembled ranking is byte-identical
// to dse.Explore over the same grid.
func (s *Server) sweepUnits(ctx context.Context, j *Job) (*dse.Exploration, int, string, error) {
	snap := j.Snapshot()
	if fl := s.opts.Cluster; j.fleet && fl != nil {
		j.prog.SetPhase("sweep:fleet")
		req := cluster.SweepRequest{Target: snap.Target, Base: &j.base, Space: j.space, Op: &j.op, TimeoutMS: snap.TimeoutMS}
		ex, cached, stopped, err := fl.Sweep(ctx, req, s.fleetHooks(j))
		if !errors.Is(err, cluster.ErrUnavailable) {
			// Workers evaluated the points, but the results are canonical,
			// so priming the coordinator's own run cache makes later runs
			// and local sweeps over the same territory free.
			if err == nil && s.cache.enabled() {
				for _, p := range ex.Ranked {
					if p.Result != nil {
						s.cache.put(p.Config.Fingerprint(snap.Target), p.Result)
					}
				}
			}
			return ex, cached, stopped, err
		}
	}
	j.prog.SetPhase("sweep")
	cfgs := j.space.ConfigsRange(j.base, j.lo, j.hi)
	pts := make([]dse.Point, len(cfgs))
	fps := make([]string, len(cfgs))
	var missCfgs []core.Config
	var missLabels []string
	var missIdx []int
	cachedPoints := 0
	for i, cfg := range cfgs {
		// With the cache disabled, skip fingerprinting and lookups
		// entirely.
		if s.cache.enabled() {
			fps[i] = cfg.Fingerprint(snap.Target)
			if res, ok := s.cache.get(fps[i]); ok {
				pts[i] = dse.Point{Label: dse.ConfigLabel(cfg), Config: cfg, Result: rehome(res, cfg)}
				cachedPoints++
				j.publishPoint(PointEvent{Label: pts[i].Label, GBps: pts[i].GBps(j.op), Feasible: true, Cached: true})
				continue
			}
		}
		missCfgs = append(missCfgs, cfg)
		missLabels = append(missLabels, dse.ConfigLabel(cfg))
		missIdx = append(missIdx, i)
	}

	stopped := runstate.FromContext(ctx)
	if len(missCfgs) > 0 && stopped == "" {
		// A factory failure is an infrastructure error, not an infeasible
		// design point: record it and fail the whole job instead of
		// reporting a successful sweep full of phantom infeasibles.
		var factoryErr atomic.Pointer[error]
		factory := func() (device.Device, error) {
			dev, err := s.opts.NewDevice(snap.Target)
			if err != nil {
				factoryErr.CompareAndSwap(nil, &err)
			}
			return dev, err
		}
		// onPoint runs concurrently on the sweep workers; tracker and
		// event log are safe for that.
		onPoint := func(_ int, p dse.Point) {
			pe := PointEvent{Label: p.Label, GBps: p.GBps(j.op), Feasible: p.Err == nil}
			if p.Err != nil {
				pe.Error = p.Err.Error()
			}
			j.publishPoint(pe)
		}
		var fresh []dse.Point
		// The batch span brackets the whole parallel fan-out; each grid
		// point records its own child span inside the dse workers.
		bctx, bsp := obs.StartSpan(ctx, "sweep.batch",
			"points", fmt.Sprint(len(missCfgs)), "workers", fmt.Sprint(s.opts.SweepWorkers))
		fresh, stopped = dse.EvalParallelContext(bctx, factory, missCfgs, missLabels, s.opts.SweepWorkers, onPoint)
		bsp.End()
		if errp := factoryErr.Load(); errp != nil {
			// EvalParallelContext marks the claimed point whenever the
			// factory fails, so a recorded error always means unevaluated
			// points.
			return nil, 0, "", *errp
		}
		for k, p := range fresh {
			i := missIdx[k]
			pts[i] = p
			// Unevaluated holes (canceled before the point was claimed)
			// must not poison the cache with nil results.
			if p.Evaluated() && p.Err == nil {
				s.cache.put(fps[i], p.Result)
			}
		}
	}
	if stopped != "" {
		pts = dse.EvaluatedPoints(pts)
	}
	ex := dse.Rank(pts, j.op)
	return &ex, cachedPoints, stopped, nil
}

// fleetHooks adapts a fleet job's coordinator callbacks onto the job's
// progress tracker and event log: forwarded worker point events become
// ordinary point/progress events (one merged NDJSON stream), shard
// scheduling updates become shard events, and a retried shard's
// already-streamed points are rewound so aggregate progress never
// counts an evaluation unit twice. Both callbacks arrive concurrently
// from shard goroutines; the tracker and event log are safe for that.
func (s *Server) fleetHooks(j *Job) cluster.FleetHooks {
	return cluster.FleetHooks{
		OnPoint: func(p cluster.PointEvent) {
			j.publishPoint(PointEvent(p))
		},
		OnShard: func(u cluster.ShardUpdate) {
			if u.RewindPoints > 0 {
				j.prog.Step(-u.RewindPoints)
			}
			// Shard tail latency: one observation per finished attempt,
			// split by outcome so the tail of retried shards is visible.
			if s.reg != nil && u.ElapsedMS > 0 && u.State != "assigned" {
				s.reg.Histogram("mpstream_cluster_shard_seconds",
					"Wall-clock duration of fleet shard attempts, by outcome.",
					obs.DurationBuckets, "state", string(u.State)).
					Observe(float64(u.ElapsedMS) / 1000)
			}
			j.publishShard(u)
		},
	}
}

// executeOptimize runs a budgeted strategy search. Identical optimize
// requests (same target, base, space, op, strategy, budget and seed —
// the search is deterministic under that tuple) are resolved from the
// optimizer LRU, single-flighted like runs. Below that, every unique
// evaluation shares the per-point run-result cache with /v1/run and
// /v1/sweep, so an optimizer walks for free over territory any earlier
// job explored.
func (s *Server) executeOptimize(ctx context.Context, j *Job) {
	snap := j.Snapshot()
	j.prog.SetTotal(j.sopts.Budget)
	j.prog.SetPhase("search:" + j.sopts.Strategy)
	cachedPoints := 0
	res, cached, err := resolve(ctx, s, s.optCache, snap.Fingerprint, func() (*search.Result, error) {
		dev, err := s.opts.NewDevice(snap.Target)
		if err != nil {
			return nil, err
		}
		// The search is sequential on one device (strategies are adaptive:
		// the next evaluation depends on the last), so unlike sweeps there
		// is no grid fan-out; parallelism comes from concurrent jobs — and,
		// on a coordinator, from the fleet, which runs each cache miss
		// while the search itself stays local. The engine calls eval and
		// then the Observe hook synchronously from one goroutine, so
		// lastCached needs no lock.
		lastCached := false
		eval := func(cfg core.Config, label, fp string) dse.Point {
			lastCached = false
			ectx, sp := obs.StartSpan(ctx, "optimize.eval", "label", label)
			defer sp.End()
			if s.cache.enabled() {
				if res, ok := s.cache.get(fp); ok {
					cachedPoints++
					lastCached = true
					sp.SetAttr("cached", "true")
					return dse.Point{Label: label, Config: cfg, Result: rehome(res, cfg)}
				}
			}
			res, err := s.runUnit(ectx, sp, j, dev, cfg)
			if err != nil {
				return dse.Point{Label: label, Config: cfg, Err: err}
			}
			s.cache.put(fp, res)
			return dse.Point{Label: label, Config: cfg, Result: res}
		}
		searchEval := search.Evaluator(eval)
		if j.sopts.Objective == search.ObjectiveKnee {
			// Each unique point is scored at its loaded-latency knee
			// ceiling. The knee rides on top of (possibly cached) runs; the
			// wrapper memoizes the cheap, deterministic surface probe per
			// traffic shape within this search, and the whole-search LRU
			// absorbs repeated requests.
			searchEval = search.WithKneeObjective(dev, searchEval)
		}
		hooks := search.Hooks{
			Context: ctx,
			Observe: func(p dse.Point) {
				pe := PointEvent{Label: p.Label, GBps: p.GBps(j.op), Feasible: p.Err == nil, Cached: lastCached}
				if p.Err != nil {
					pe.Error = p.Err.Error()
				}
				j.publishPoint(pe)
			},
		}
		// Strategy and budget were validated at submit time, so an error
		// here is unreachable in practice.
		return search.RunWithHooks(searchEval, func(c core.Config) string { return c.Fingerprint(snap.Target) },
			j.base, j.space, j.op, j.sopts, hooks)
	}, func(r *search.Result) bool { return r.Stopped == "" })
	if err != nil {
		j.fail(err)
		return
	}
	if res.Stopped != "" {
		// A stopped search still reports the best point found so far.
		j.finishStopped(res.Stopped, func(v *View) { v.Optimize, v.CachedPoints = res, cachedPoints })
		return
	}
	if cached {
		j.prog.Step(res.Evaluations)
		j.prog.Observe(res.BestGBps)
	}
	// A completed strategy may legitimately stop below its budget
	// (attempt caps in nearly-explored spaces); reconcile the total so a
	// done job always reads done == total.
	j.prog.SetTotal(res.Evaluations)
	j.finish(StatusDone, func(v *View) { v.Cached, v.Optimize, v.CachedPoints = cached, res, cachedPoints })
}

// executeSurface measures a bandwidth–latency surface (or a curve shard
// of one). A surface job resolves it from the whole-surface cache
// (single-flight; the generator is deterministic, so identical requests
// measure once); a surface check bypasses the cache and verdicts the
// fresh measurement against its baseline. Fleet distribution happens
// inside the single-flight leader, so one merged fleet measurement
// serves every concurrent duplicate and primes the cache like a local
// one.
func (s *Server) executeSurface(ctx context.Context, j *Job) {
	snap := j.Snapshot()
	check := snap.Kind == KindCheck
	cache, phase := s.surfCache, "surface"
	if check {
		cache, phase = nil, "check:surface"
	}
	total := (j.hi - j.lo) * len(j.scfg.Rates)
	j.prog.SetTotal(total)
	j.prog.SetPhase(phase)
	res, cached, err := resolve(ctx, s, cache, snap.Fingerprint, func() (*surface.Surface, error) {
		return s.surfaceUnit(ctx, j, phase)
	}, func(r *surface.Surface) bool { return r.Stopped == "" })
	if err != nil {
		j.fail(err)
		return
	}
	// A check stopped mid-ladder verdicts the measured subset as a
	// partial report: missing reference rungs are skipped, not failed.
	var rep *baseline.Report
	if check {
		rep = s.verdict(j, baseline.FromSurface(res), res.Stopped != "")
	}
	if res.Stopped != "" {
		j.finishStopped(res.Stopped, func(v *View) { v.Surface, v.Check = res, rep })
		return
	}
	if cached {
		// Mirror the fresh path's per-rung observations so a cache hit
		// reports the same best_gbps as the measurement that primed it.
		for _, c := range res.Curves {
			for _, p := range c.Points {
				j.prog.Observe(p.AchievedGBps)
			}
		}
	}
	// Same reconciliation as sweeps: a cache hit or a fleet measurement
	// whose worker streams dropped events still reads done == total.
	j.prog.Step(total - j.prog.Snapshot().Done)
	j.finish(StatusDone, func(v *View) { v.Cached, v.Surface, v.Check = cached, res, rep })
}

// clusterHealth is the coordinator block of /v1/healthz: the live
// fleet size at a glance.
type clusterHealth struct {
	WorkersAlive int `json:"workers_alive"`
	WorkersTotal int `json:"workers_total"`
}

// health is the /v1/healthz body.
type health struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	UptimeMS      int64          `json:"uptime_ms"`
	Workers       int            `json:"workers"`
	QueueLength   int            `json:"queue_length"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[Status]int `json:"jobs"`
	Cache         CacheStats     `json:"cache"`
	OptimizeCache CacheStats     `json:"optimize_cache"`
	SurfaceCache  CacheStats     `json:"surface_cache"`
	// Cluster reports live worker counts on coordinators; absent on
	// standalone servers and plain workers.
	Cluster *clusterHealth `json:"cluster,omitempty"`
}

func (s *Server) health() health {
	h := health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		UptimeMS:      time.Since(s.start).Milliseconds(),
		Workers:       s.opts.Workers,
		QueueLength:   len(s.queue),
		QueueCapacity: cap(s.queue),
		Jobs:          s.jobs.counts(),
		Cache:         s.cache.stats(),
		OptimizeCache: s.optCache.stats(),
		SurfaceCache:  s.surfCache.stats(),
	}
	if c := s.opts.Cluster; c != nil {
		alive, total := c.Counts()
		h.Cluster = &clusterHealth{WorkersAlive: alive, WorkersTotal: total}
	}
	return h
}
