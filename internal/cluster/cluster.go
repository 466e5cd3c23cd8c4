// Package cluster is the coordinator/worker fleet layer that scales
// MP-STREAM's design-space exploration beyond one process. A worker is
// an ordinary mpserved instance that registers itself (targets and
// capacity), heartbeats, and executes shard jobs through the same
// /v1/* HTTP API it serves to everyone else: a shard is a plain
// /v1/sweep or /v1/surface request whose "shard" field bounds it to a
// [lo, hi) range, which also keeps it from being re-sharded. The
// coordinator partitions sweep grids (dse.Space.Partition) and surface
// ladders (surface.Config.PartitionCurves) into many small contiguous
// shards (sized by a per-shard work floor, not by fleet size) and
// feeds them through a pull-based bounded queue: whichever worker
// frees a capacity slot takes the next shard, so fast workers absorb
// more of the grid, workers joining mid-job start pulling immediately,
// and a dead worker's in-flight shards re-queue onto the survivors. At
// the job's tail, straggling attempts are speculatively re-executed on
// idle workers with first-result-wins dedup. The partial results merge
// back into the canonical order — a distributed sweep is
// byte-identical to a single-node one because the simulator is
// deterministic and the shard merge is order-preserving, which is also
// what makes stealing and speculation safe.
//
// The package deliberately does not import internal/service: the
// service layer embeds a Coordinator and translates between its own
// job model and the fleet callbacks, while this package speaks only
// the HTTP wire format; it owns that format's request bodies and point
// events, which the service aliases. Everything the coordinator learns about a job
// in flight (per-point events, shard assignment, retries) is surfaced
// through callbacks so the service can re-export one merged NDJSON
// event stream and one aggregated progress snapshot per fleet job.
package cluster

import (
	"errors"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/core"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/shard"
	"mpstream/internal/surface"
)

// ErrNoWorkers is returned by fleet operations when no alive worker
// can serve the request; the service layer falls back to local
// execution.
var ErrNoWorkers = errors.New("cluster: no alive workers")

// WorkerInfo is what a worker advertises when registering: where to
// reach it, which targets it serves, and how many shard jobs it can
// execute concurrently.
type WorkerInfo struct {
	// ID names the worker; re-registration under the same ID replaces
	// the previous entry (a restarted worker is still one worker).
	ID string `json:"id"`
	// Addr is the worker's base URL, e.g. "http://10.0.0.7:8774".
	Addr string `json:"addr"`
	// Targets lists the benchmark targets the worker serves.
	Targets []string `json:"targets"`
	// Capacity is the worker's concurrent job slots (its worker-pool
	// size); the scheduler load-balances shards against it.
	Capacity int `json:"capacity"`
}

// WorkerView is the externally visible registry entry — the JSON shape
// GET /v1/cluster/workers serves.
type WorkerView struct {
	WorkerInfo
	// Alive reports a heartbeat within the TTL.
	Alive bool `json:"alive"`
	// FirstSeen is the time of the worker's first registration — the
	// base of its shards-completed rate.
	FirstSeen time.Time `json:"first_seen"`
	// LastSeen is the time of the last register or heartbeat.
	LastSeen time.Time `json:"last_seen"`
	// Inflight counts shards currently assigned to the worker.
	Inflight int `json:"inflight"`
	// ShardsDone and Failures count completed and failed shard
	// executions over the worker's lifetime in this registry.
	ShardsDone uint64 `json:"shards_done"`
	Failures   uint64 `json:"failures"`
}

// RegisterResponse tells a registering worker the heartbeat contract.
type RegisterResponse struct {
	// TTLMS is how long the registration stays alive without a
	// heartbeat.
	TTLMS int64 `json:"ttl_ms"`
	// HeartbeatMS is the interval the worker should heartbeat at
	// (comfortably inside the TTL).
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest is the POST /v1/cluster/heartbeat body.
type HeartbeatRequest struct {
	ID string `json:"id"`
}

// HeartbeatResponse acknowledges a heartbeat; Known false tells the
// worker the coordinator restarted (or evicted it) and it must
// re-register.
type HeartbeatResponse struct {
	Known bool `json:"known"`
}

// RunRequest is the POST /v1/run body. A nil config runs the paper's
// baseline configuration.
type RunRequest struct {
	Target string       `json:"target"`
	Config *core.Config `json:"config,omitempty"`
	// Async returns 202 with a job id immediately instead of waiting for
	// the result; poll GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds the job's execution once it starts running,
	// clamped to the server's maximum; 0 means none. An expired deadline
	// lands the job in canceled with stop_reason "deadline", carrying
	// whatever partial results the executor collected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest is the POST /v1/sweep body. A nil base starts from the
// default configuration; op defaults to copy.
type SweepRequest struct {
	Target string       `json:"target"`
	Base   *core.Config `json:"base,omitempty"`
	Space  dse.Space    `json:"space"`
	Op     *kernel.Op   `json:"op,omitempty"`
	// Shard restricts the sweep to the points [lo, hi) of the grid's
	// flat enumeration — the unit a coordinator hands one worker. A
	// sharded sweep always runs on the server that receives it: a shard
	// is never re-sharded.
	Shard     *shard.Range `json:"shard,omitempty"`
	Async     bool         `json:"async,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// OptimizeRequest is the POST /v1/optimize body. A nil base starts
// from the default configuration; op defaults to copy; an empty
// strategy means exhaustive; budget 0 means the full space (subject to
// the server's budget limit); equal seeds reproduce equal searches; an
// empty objective ranks by raw bandwidth, "knee" by the surface knee.
type OptimizeRequest struct {
	Target    string       `json:"target"`
	Base      *core.Config `json:"base,omitempty"`
	Space     dse.Space    `json:"space"`
	Op        *kernel.Op   `json:"op,omitempty"`
	Strategy  string       `json:"strategy,omitempty"`
	Budget    int          `json:"budget,omitempty"`
	Seed      int64        `json:"seed,omitempty"`
	Objective string       `json:"objective,omitempty"`
	Async     bool         `json:"async,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// SurfaceRequest is the POST /v1/surface body. A nil config measures
// the default bandwidth–latency surface (surface.Config zero value).
type SurfaceRequest struct {
	Target string          `json:"target"`
	Config *surface.Config `json:"config,omitempty"`
	// Shard restricts the measurement to the curves [lo, hi) of the
	// ladder in pattern-major order; like a sweep shard it always runs
	// on the server that receives it.
	Shard     *shard.Range `json:"shard,omitempty"`
	Async     bool         `json:"async,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// BaselineRequest is the POST /v1/baselines body: register a named
// reference sourced from a finished job (FromJob), an inline run
// result, or an inline surface — exactly one. Config/SurfaceConfig
// optionally override the configuration carried by the payload; Target
// defaults to the source job's target.
type BaselineRequest struct {
	Name          string             `json:"name"`
	Target        string             `json:"target"`
	Config        *core.Config       `json:"config,omitempty"`
	SurfaceConfig *surface.Config    `json:"surface_config,omitempty"`
	Result        *core.Result       `json:"result,omitempty"`
	Surface       *surface.Surface   `json:"surface,omitempty"`
	FromJob       string             `json:"from_job,omitempty"`
	Tolerance     baseline.Tolerance `json:"tolerance,omitzero"`
}

// CheckRequest is the POST /v1/check body: re-measure the named
// baseline's configuration and verdict the drift.
type CheckRequest struct {
	Name string `json:"name"`
	// Tolerance overrides the stored bands for this check only; zero
	// fields inherit the entry's stored values.
	Tolerance *baseline.Tolerance `json:"tolerance,omitempty"`
	Async     bool                `json:"async,omitempty"`
	TimeoutMS int64               `json:"timeout_ms,omitempty"`
}

// JobView is the subset of the service's job view the cluster layer
// consumes; field names match the service wire format.
type JobView struct {
	ID           string           `json:"id"`
	Status       string           `json:"status"`
	StopReason   string           `json:"stop_reason,omitempty"`
	Cached       bool             `json:"cached,omitempty"`
	CachedPoints int              `json:"cached_points,omitempty"`
	Result       *core.Result     `json:"result,omitempty"`
	Sweep        *dse.Exploration `json:"sweep,omitempty"`
	Optimize     *search.Result   `json:"optimize,omitempty"`
	Surface      *surface.Surface `json:"surface,omitempty"`
	Check        *baseline.Report `json:"check,omitempty"`
	Error        string           `json:"error,omitempty"`
	// Spans piggybacks the worker's recorded spans for this job when it
	// was submitted under a remote parent span (the coordinator's shard
	// span); the coordinator ingests them to assemble one fleet-wide
	// trace tree.
	Spans []obs.Span `json:"spans,omitempty"`
}

// Terminal reports whether the view shows a finished job.
func (v *JobView) Terminal() bool {
	switch v.Status {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// PointEvent is the compact per-evaluation-unit payload of a point
// event; the coordinator forwards these from worker event streams into
// the fleet job's own merged stream.
type PointEvent struct {
	// Label identifies the unit: a dse.ConfigLabel for sweep and
	// optimize evaluations, "pattern/readfrac@rate" for a surface rung.
	Label string `json:"label"`
	// GBps is the unit's bandwidth: the kernel bandwidth of an evaluated
	// configuration, or the achieved bandwidth of a surface rung.
	GBps float64 `json:"gbps"`
	// Feasible is false when the device rejected the configuration.
	Feasible bool `json:"feasible"`
	// Error carries the infeasibility reason, when any.
	Error string `json:"error,omitempty"`
	// Cached marks units answered by the run-result cache.
	Cached bool `json:"cached,omitempty"`
	// LatencyNs rides on surface rungs: the loaded latency.
	LatencyNs float64 `json:"latency_ns,omitempty"`
}

// ShardUpdate reports fleet scheduling decisions for one shard — the
// payload behind the merged stream's "shard" events and the hook the
// service uses to keep aggregate progress honest across retries.
type ShardUpdate struct {
	// Shard indexes the shard within its fleet job, 0-based. -1 marks a
	// job-wide update (the "waiting" state, when the queue has work but
	// the fleet has no alive worker to pull it).
	Shard int `json:"shard"`
	// Worker is the assigned worker's ID.
	Worker string `json:"worker,omitempty"`
	// Attempt counts real (non-speculative) executions of this shard,
	// starting at 1. A speculative duplicate shares its primary's
	// attempt number.
	Attempt int `json:"attempt"`
	// State is "assigned" (pulled from the queue), "speculated" (a
	// duplicate tail attempt launched on an idle worker), "done",
	// "failed" (this attempt; the shard re-queues if attempts remain),
	// "lost-race" (the other attempt of a speculation race finished
	// first; this one is being canceled), "waiting" (queued work but no
	// alive worker) or "lost" (attempts exhausted).
	State string `json:"state"`
	// Speculative marks updates about a speculative duplicate attempt.
	Speculative bool `json:"speculative,omitempty"`
	// Queued is the job's shard-queue depth after this update — how
	// many shards are still waiting to be pulled.
	Queued int `json:"queued,omitempty"`
	// Error carries the failure reason on failed/waiting/lost updates.
	Error string `json:"error,omitempty"`
	// RewindPoints counts evaluation units the failed attempt already
	// streamed; a retry re-runs them, so aggregate progress must take
	// them back.
	RewindPoints int `json:"rewind_points,omitempty"`
	// ElapsedMS is the attempt's wall-clock duration on done, failed,
	// lost-race and lost updates (0 on assigned/speculated/waiting) —
	// the raw material of the shard tail-latency histogram.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}
