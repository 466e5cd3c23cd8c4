package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/dse"
	"mpstream/internal/obs"
	"mpstream/internal/shard"
	"mpstream/internal/surface"
)

// ErrUnavailable wraps fleet failures that are about the fleet, not the
// work: no alive workers, or every attempt exhausted on transport
// errors. Callers fall back to local execution on it.
var ErrUnavailable = errors.New("cluster: fleet unavailable")

// Defaults for Options zero values, and the fixed scheduler settings.
const (
	// DefaultShardUnit is the per-shard work floor: a fleet job is
	// partitioned into the largest shard count that still leaves at
	// least this many work units (grid points, surface curves) per
	// shard. Small shards are what make the pull queue elastic — the
	// unit of stealing, re-queueing and speculation is one shard.
	DefaultShardUnit = 4
	// DefaultMaxAttempts bounds how many real executions one shard gets
	// before the fleet job fails.
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the base of the capped exponential backoff
	// a re-queued shard waits before it may be dispatched again.
	DefaultRetryBackoff = 100 * time.Millisecond
	// DefaultMaxBackoff caps the backoff growth.
	DefaultMaxBackoff = 2 * time.Second
	// DefaultSpecFactor scales the completed-shard mean latency into
	// the speculation threshold: a tail attempt running longer than
	// factor x mean gets a duplicate on an idle worker.
	DefaultSpecFactor = 2.0
	// DefaultSpecMinSamples is how many completed shards the latency
	// estimate needs before speculation may trigger.
	DefaultSpecMinSamples = 3
)

// specFloorMS floors the speculation threshold so sub-millisecond
// shard latencies (tiny grids, warm caches) don't turn scheduling
// jitter into duplicate executions.
const specFloorMS = 25.0

// Options configures a Coordinator. The zero value is production-
// shaped.
type Options struct {
	// HeartbeatTTL is how long a registration lives without a
	// heartbeat; <= 0 means DefaultHeartbeatTTL.
	HeartbeatTTL time.Duration
	// ShardUnit, RetryBackoff and MaxBackoff tune the shard scheduler;
	// <= 0 means the defaults above.
	ShardUnit    int
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// DisableSpeculation turns off speculative tail re-execution.
	DisableSpeculation bool
	// Now is the liveness clock; nil means time.Now. Tests inject fake
	// clocks here.
	Now func() time.Time
	// Logger receives the scheduler's leveled diagnostics: shard
	// retries, workers marked down, watchdog reaps, lost shards — the
	// paths that used to fail silently. Nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if o.ShardUnit <= 0 {
		o.ShardUnit = DefaultShardUnit
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	return o
}

// Coordinator owns the worker registry and schedules fleet jobs over
// it. Create with New, attach to a service server, and Close on
// shutdown (stops the static-peer probes; in-flight fleet jobs are
// governed by their own contexts).
type Coordinator struct {
	opts   Options
	client *Client
	reg    *registry
	log    *slog.Logger

	// Shard scheduling counters, exposed through Stats for the service
	// metrics collector. Cheap unconditional atomics.
	shardsAssigned    atomic.Uint64
	shardsDone        atomic.Uint64
	shardsRetried     atomic.Uint64
	shardsWaited      atomic.Uint64
	shardsLost        atomic.Uint64
	shardsStolen      atomic.Uint64
	shardsSpeculated  atomic.Uint64
	speculationWins   atomic.Uint64
	speculationWasted atomic.Uint64
	remoteEvals       atomic.Uint64
	queueDepth        atomic.Int64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Coordinator.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	return &Coordinator{
		opts:   opts,
		client: NewClient(),
		reg:    newRegistry(opts.HeartbeatTTL, opts.Now),
		log:    log,
		stop:   make(chan struct{}),
	}
}

// FleetStats snapshots the coordinator's lifetime shard-scheduling
// counters.
type FleetStats struct {
	ShardsAssigned uint64 `json:"shards_assigned"`
	ShardsDone     uint64 `json:"shards_done"`
	// ShardsRetried counts real re-executions: a shard re-queued after
	// a failed attempt. ShardsWaited counts scheduler rounds spent with
	// queued work but no alive worker — idle waits, not attempts.
	ShardsRetried uint64 `json:"shards_retried"`
	ShardsWaited  uint64 `json:"shards_waited"`
	ShardsLost    uint64 `json:"shards_lost"`
	// ShardsStolen counts shards completed by a different worker than
	// the one first assigned — the pull queue absorbing a failure or a
	// dead worker's in-flight work. Speculation wins are counted
	// separately, not as steals.
	ShardsStolen uint64 `json:"shards_stolen"`
	// ShardsSpeculated counts duplicate tail attempts launched;
	// SpeculationWins those that finished first, SpeculationWasted
	// those that lost the race or failed.
	ShardsSpeculated  uint64 `json:"shards_speculated"`
	SpeculationWins   uint64 `json:"speculation_wins"`
	SpeculationWasted uint64 `json:"speculation_wasted"`
	RemoteEvals       uint64 `json:"remote_evals"`
	// QueueDepth is the current number of queued shards across all
	// in-flight fleet jobs — a gauge, not a counter.
	QueueDepth int64 `json:"queue_depth"`
}

// Stats reads the lifetime shard-scheduling counters.
func (c *Coordinator) Stats() FleetStats {
	return FleetStats{
		ShardsAssigned:    c.shardsAssigned.Load(),
		ShardsDone:        c.shardsDone.Load(),
		ShardsRetried:     c.shardsRetried.Load(),
		ShardsWaited:      c.shardsWaited.Load(),
		ShardsLost:        c.shardsLost.Load(),
		ShardsStolen:      c.shardsStolen.Load(),
		ShardsSpeculated:  c.shardsSpeculated.Load(),
		SpeculationWins:   c.speculationWins.Load(),
		SpeculationWasted: c.speculationWasted.Load(),
		RemoteEvals:       c.remoteEvals.Load(),
		QueueDepth:        c.queueDepth.Load(),
	}
}

// Close stops the background peer probes. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Register adds or refreshes a worker registration and returns the
// heartbeat contract.
func (c *Coordinator) Register(info WorkerInfo) RegisterResponse {
	c.reg.upsert(info)
	ttl := c.opts.HeartbeatTTL
	return RegisterResponse{TTLMS: ttl.Milliseconds(), HeartbeatMS: (ttl / 3).Milliseconds()}
}

// Heartbeat refreshes a worker's liveness; false asks it to
// re-register.
func (c *Coordinator) Heartbeat(id string) bool { return c.reg.heartbeat(id) }

// Workers snapshots the registry for telemetry.
func (c *Coordinator) Workers() []WorkerView { return c.reg.snapshot() }

// Counts tallies alive and total registered workers.
func (c *Coordinator) Counts() (alive, total int) { return c.reg.counts() }

// HasWorkers reports whether at least one alive worker serves target.
func (c *Coordinator) HasWorkers(target string) bool {
	n, _ := c.reg.aliveSlots(target)
	return n > 0
}

// ScrapeWorkers fetches every alive worker's /v1/metrics exposition
// concurrently, bounding each scrape with timeout so one stuck worker
// cannot stall the federated response. Failed scrapes are returned
// with Err set (not dropped) so the merged exposition can report
// per-worker scrape health.
func (c *Coordinator) ScrapeWorkers(ctx context.Context, timeout time.Duration) []obs.Exposition {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var alive []WorkerView
	for _, w := range c.reg.snapshot() {
		if w.Alive {
			alive = append(alive, w)
		}
	}
	parts := make([]obs.Exposition, len(alive))
	var wg sync.WaitGroup
	for i, w := range alive {
		wg.Add(1)
		go func(i int, w WorkerView) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			body, err := c.client.Metrics(sctx, w.Addr)
			parts[i] = obs.Exposition{Worker: w.ID, Body: body, Err: err}
		}(i, w)
	}
	wg.Wait()
	return parts
}

// WatchPeers keeps static peers (mpserved -peers) registered: each
// address is probed immediately and then on a ticker at a third of the
// heartbeat TTL, standing in for the register/heartbeat loop a dynamic
// worker runs itself. Unreachable peers simply age out of liveness
// until a probe succeeds again.
func (c *Coordinator) WatchPeers(addrs []string) {
	probe := func(addr string) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if info, err := c.client.Probe(ctx, addr); err == nil {
			c.reg.upsert(info)
		}
	}
	for _, addr := range addrs {
		probe(addr)
		c.wg.Add(1)
		go func(addr string) {
			defer c.wg.Done()
			tick := time.NewTicker(c.opts.HeartbeatTTL / 3)
			defer tick.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-tick.C:
					probe(addr)
				}
			}
		}(addr)
	}
}

// FleetHooks surfaces a fleet job's in-flight telemetry: forwarded
// worker point events and shard scheduling updates. Both callbacks are
// invoked concurrently from shard goroutines and must be safe for
// that. Either may be nil.
type FleetHooks struct {
	OnPoint func(PointEvent)
	OnShard func(ShardUpdate)
}

func (h FleetHooks) point(p PointEvent) {
	if h.OnPoint != nil {
		h.OnPoint(p)
	}
}

func (h FleetHooks) shard(u ShardUpdate) {
	if h.OnShard != nil {
		h.OnShard(u)
	}
}

// shardOutcome is one shard's final state inside a fleet job.
type shardOutcome struct {
	view    JobView
	got     bool   // a usable (possibly partial) view landed
	stopped string // the shard observed the fleet context ending
	err     error  // attempts exhausted
}

// runShards drives n shards to outcomes through the pull-based
// dispatcher in scheduler.go: shards queue in index (locality) order,
// workers with free capacity pull the next shard, failed or lost
// attempts re-queue, and straggling tail attempts are speculatively
// duplicated on idle workers. A canceled fleet context fans the
// cancellation out: every in-flight worker job gets a DELETE and its
// terminal partial view is collected. submit dispatches shard i to one
// worker and returns the queued job's view.
func (c *Coordinator) runShards(ctx context.Context, n int, target string, hooks FleetHooks,
	submit func(ctx context.Context, workerAddr string, shard int) (JobView, error)) []shardOutcome {
	return newDispatcher(c, ctx, n, target, hooks, submit).run()
}

// ingestSpans grafts a worker view's piggybacked spans into the
// recorder carried by the fleet job's context (no-op without one),
// then strips them so the coordinator's own payloads never re-ship
// another node's spans.
func (c *Coordinator) ingestSpans(ctx context.Context, view *JobView) {
	if len(view.Spans) == 0 {
		return
	}
	obs.RecorderFrom(ctx).Ingest(view.Spans...)
	view.Spans = nil
}

// awaitWithWatchdog follows a shard job's event stream, abandoning the
// wait as soon as the worker stops being alive in the registry — a
// worker that died silently (no RST on its open connections, e.g. a
// network partition or a machine that lost power) would otherwise pin
// the shard until TCP gives up. Liveness decays via the heartbeat TTL
// and via other shards' transport failures marking the worker down, so
// every shard on a dead worker is reaped within one watchdog period.
func (c *Coordinator) awaitWithWatchdog(ctx context.Context, w WorkerInfo, id string, onPoint func(PointEvent)) (JobView, error) {
	awaitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	period := c.opts.HeartbeatTTL / 4
	if period > time.Second {
		period = time.Second
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-awaitCtx.Done():
				return
			case <-tick.C:
				if !c.reg.isAlive(w.ID) {
					cancel()
					return
				}
			}
		}
	}()
	view, err := c.client.AwaitJob(awaitCtx, w.Addr, id, onPoint)
	if err != nil && ctx.Err() == nil && awaitCtx.Err() != nil {
		c.log.Warn("cluster: watchdog reaped await on dead worker",
			"worker", w.ID, "job", id, "trace", obs.TraceID(ctx))
		err = fmt.Errorf("cluster: worker %s no longer alive while awaiting job %s", w.ID, id)
	}
	return view, err
}

// backoffDelay is the capped exponential delay before a shard's next
// execution (attempt counts the executions already made).
func (c *Coordinator) backoffDelay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := c.opts.RetryBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	return d
}

// Sweep partitions req's grid, schedules the shards over the fleet,
// and merges the shard rankings back into the canonical exploration.
// req is the sweep the service runs: its Base and Op must be set,
// canonical and validated (the service submit path does all three),
// and each shard forwards it to a worker with Shard set to its range.
//
// The merge is byte-identical to a single-node sweep: shards are
// contiguous flat ranges in grid order, each worker ranks its shard
// with the same stable sort a local sweep uses, and re-ranking the
// concatenated shard rankings preserves the relative order of
// equal-bandwidth points — exactly the global stable sort over the
// flat enumeration. Returned alongside are the summed worker cache
// hits and the stop tag ("" unless the fleet context ended first).
func (c *Coordinator) Sweep(ctx context.Context, req SweepRequest, hooks FleetHooks) (*dse.Exploration, int, string, error) {
	if !c.HasWorkers(req.Target) {
		return nil, 0, "", fmt.Errorf("%w for target %q", ErrUnavailable, req.Target)
	}
	// A fleet job has as many shards as the per-shard work floor allows,
	// independent of fleet size: the pull queue, not the partition,
	// decides which worker executes what, so over-partitioning is how
	// fast workers absorb more of the job. Sweeps floor at ShardUnit grid
	// points; surfaces (below) at one curve per shard, since a curve is
	// already a coarse unit, a full rate ladder of measured points.
	ranges := req.Space.Partition(shard.UnitCount(req.Space.Size(), c.opts.ShardUnit))
	submit := func(ctx context.Context, workerAddr string, i int) (JobView, error) {
		sr := req
		sr.Shard, sr.Async = &ranges[i], true
		return c.client.Submit(ctx, workerAddr, "/v1/sweep", sr)
	}
	outcomes := c.runShards(ctx, len(ranges), req.Target, hooks, submit)

	_, msp := obs.StartSpan(ctx, "fleet.merge", "shards", strconv.Itoa(len(ranges)))
	defer msp.End()
	stopped := ""
	var pts []dse.Point
	infeasible, cached := 0, 0
	for _, o := range outcomes {
		if o.err != nil {
			return nil, 0, "", o.err
		}
		if o.stopped != "" && stopped == "" {
			stopped = o.stopped
		}
		if !o.got || o.view.Sweep == nil {
			continue
		}
		pts = append(pts, o.view.Sweep.Ranked...)
		infeasible += o.view.Sweep.Infeasible
		cached += o.view.CachedPoints
	}
	ex := dse.Rank(pts, *req.Op)
	ex.Infeasible = infeasible
	return &ex, cached, stopped, nil
}

// Surface partitions req's ladder curves, schedules the shards over
// the fleet, and reassembles the canonical surface. req's Config must
// be set, canonical (WithDefaults) and validated; each shard forwards
// req to a worker with Shard set to its curve range. Identical to a
// single-node generation for the same reason sweeps are: curve shards
// are contiguous in pattern-major order and the simulator is
// deterministic.
func (c *Coordinator) Surface(ctx context.Context, req SurfaceRequest, hooks FleetHooks) (*surface.Surface, string, error) {
	if !c.HasWorkers(req.Target) {
		return nil, "", fmt.Errorf("%w for target %q", ErrUnavailable, req.Target)
	}
	// The floor is one curve per shard; see Sweep on how shards are counted.
	shards := req.Config.PartitionCurves(shard.UnitCount(req.Config.CurveCount(), 1))
	submit := func(ctx context.Context, workerAddr string, i int) (JobView, error) {
		sr := req
		sr.Shard, sr.Async = &shards[i], true
		return c.client.Submit(ctx, workerAddr, "/v1/surface", sr)
	}
	outcomes := c.runShards(ctx, len(shards), req.Target, hooks, submit)

	_, msp := obs.StartSpan(ctx, "fleet.merge", "shards", strconv.Itoa(len(shards)))
	defer msp.End()
	stopped := ""
	var parts []*surface.Surface
	for _, o := range outcomes {
		if o.err != nil {
			return nil, "", o.err
		}
		if o.stopped != "" && stopped == "" {
			stopped = o.stopped
		}
		if !o.got || o.view.Surface == nil {
			continue
		}
		parts = append(parts, o.view.Surface)
	}
	if len(parts) == 0 {
		return nil, stopped, fmt.Errorf("%w: no surface shards returned", ErrUnavailable)
	}
	merged, err := surface.MergeShards(parts)
	if err != nil {
		return nil, stopped, err
	}
	if stopped != "" && merged.Stopped == "" {
		merged.Stopped = stopped
	}
	return merged, stopped, nil
}

// Eval runs one configuration on the fleet — the remote-eval client
// pool behind a coordinator-local optimizer search. The worker is
// picked per call (locality, then load), so concurrent searches
// balance across the fleet. A failed worker job whose fleet-side
// transport succeeded is a real evaluation outcome (an infeasible
// design) and is returned as a plain error; transport-level failures
// are retried on other workers and, when exhausted, reported wrapped
// in ErrUnavailable so the caller falls back to evaluating locally.
func (c *Coordinator) Eval(ctx context.Context, target string, cfg core.Config, timeoutMS int64) (*core.Result, error) {
	excluded := make(map[string]bool)
	var lastErr error = ErrNoWorkers
	for attempt := 1; attempt <= DefaultMaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w, ok := c.reg.acquire(target, excluded)
		if !ok {
			break
		}
		cc := cfg
		// Same contract as shard.execute: one span per attempt, the span
		// ID stamped onto the worker request so the worker's job spans
		// graft under it.
		ectx, sp := obs.StartSpan(ctx, "cluster.eval",
			"worker", w.ID, "attempt", strconv.Itoa(attempt))
		view, err := c.client.Submit(ectx, w.Addr, "/v1/run", RunRequest{Target: target, Config: &cc, TimeoutMS: timeoutMS})
		c.ingestSpans(ctx, &view)
		switch {
		case err == nil && view.Status == "done" && view.Result != nil:
			sp.SetAttr("state", "done")
			sp.End()
			c.reg.release(w.ID, true)
			c.remoteEvals.Add(1)
			return view.Result, nil
		case err == nil && view.Status == "failed":
			// The worker evaluated the point and the simulator rejected it:
			// an infeasible design, not a fleet problem.
			sp.SetAttr("state", "infeasible")
			sp.End()
			c.reg.release(w.ID, true)
			return nil, errors.New(view.Error)
		case err == nil:
			sp.SetAttr("state", "failed")
			sp.End()
			c.reg.release(w.ID, false)
			lastErr = fmt.Errorf("worker %s: run job %s", w.ID, view.Status)
			excluded[w.ID] = true
		default:
			sp.SetAttr("state", "failed")
			sp.SetAttr("lost", "true")
			sp.End()
			if ctx.Err() != nil {
				c.reg.release(w.ID, false)
				return nil, ctx.Err()
			}
			c.reg.release(w.ID, false)
			// Only transport-level failures suggest a dead worker; a live
			// worker's well-formed refusal (queue full) must not mark it
			// down and trip the watchdog on its other work.
			var se *StatusError
			if !errors.As(err, &se) {
				c.reg.markDown(w.ID)
				c.log.Warn("cluster: marking worker down after remote eval transport failure",
					"worker", w.ID, "addr", w.Addr, "attempt", attempt,
					"trace", obs.TraceID(ctx), "err", err)
			}
			lastErr = err
			excluded[w.ID] = true
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}
