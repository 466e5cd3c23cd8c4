package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"mpstream/internal/obs"
	"mpstream/internal/runstate"
)

// This file is the fleet job scheduler: a per-job dispatcher that
// feeds a queue of small shards to whichever worker has a free
// capacity slot. The queue replaces the old static partition (one
// goroutine per shard, each retrying in place): shards wait in index
// order, a worker finishing a shard implicitly pulls the next one, a
// worker joining mid-job is picked up by the dispatcher's next poll,
// and a dead worker's in-flight shards re-queue onto the survivors.
// At the job's tail the dispatcher speculates: an attempt running well
// past the completed-shard mean latency gets a duplicate on an idle
// worker, first result wins, and the loser is canceled through the
// normal CancelAndFetch path. All of it is safe because shard merges
// are byte-identical — executing a shard twice (or on a different
// worker) cannot change the job's bytes.

// attemptState is one live execution of a shard.
type attemptState struct {
	shard       int
	number      int // real attempt number; a speculative duplicate shares its primary's
	worker      WorkerInfo
	speculative bool
	cancel      context.CancelFunc
	started     time.Time
}

// attemptResult is what a finished attempt goroutine reports back to
// the dispatcher loop.
type attemptResult struct {
	at        *attemptState
	view      JobView
	got       bool
	err       error
	stopped   string // fleet context ended during the attempt
	raceLost  bool   // canceled because the other attempt settled the shard
	points    int    // evaluation units streamed (for progress rewind)
	elapsedMS int64
}

// dispatcher runs one fleet job's shard queue. All mutable state is
// owned by the run loop goroutine; attempt goroutines communicate only
// through the results channel.
type dispatcher struct {
	c      *Coordinator
	ctx    context.Context
	target string
	hooks  FleetHooks
	submit func(ctx context.Context, workerAddr string, shard int) (JobView, error)

	n        int
	outcomes []shardOutcome
	settled  []bool
	settledN int

	pending   []int             // shard indices awaiting dispatch, ascending (locality order)
	notBefore []time.Time       // per-shard re-dispatch backoff gate
	excluded  []map[string]bool // per-shard workers that already failed it
	attempts  []int             // real executions launched per shard
	first     []string          // worker of each shard's first assignment
	specDone  []bool            // a speculative duplicate was already launched
	lastErr   []error           // last failure, for the lost message
	inflight  map[int][]*attemptState
	results   chan attemptResult
	durations []float64 // completed-shard latencies (ms), the speculation estimate
	stalls    int       // consecutive no-alive-worker rounds
	nextStall time.Time // pacing for stall rounds, follows the backoff schedule
}

func newDispatcher(c *Coordinator, ctx context.Context, n int, target string, hooks FleetHooks,
	submit func(ctx context.Context, workerAddr string, shard int) (JobView, error)) *dispatcher {
	d := &dispatcher{
		c: c, ctx: ctx, target: target, hooks: hooks, submit: submit,
		n:         n,
		outcomes:  make([]shardOutcome, n),
		settled:   make([]bool, n),
		pending:   make([]int, 0, n),
		notBefore: make([]time.Time, n),
		excluded:  make([]map[string]bool, n),
		attempts:  make([]int, n),
		first:     make([]string, n),
		specDone:  make([]bool, n),
		lastErr:   make([]error, n),
		inflight:  make(map[int][]*attemptState, n),
		// Buffered past the worst case (every shard plus every possible
		// speculative duplicate) so late race losers never block sending
		// after the dispatcher has returned.
		results: make(chan attemptResult, 2*n),
	}
	for i := 0; i < n; i++ {
		d.pending = append(d.pending, i)
		d.excluded[i] = make(map[string]bool)
	}
	c.queueDepth.Add(int64(n))
	return d
}

// pollEvery is the dispatcher's idle wake-up period: how quickly it
// notices newly joined workers, expired backoff gates and speculation
// thresholds when no attempt result arrives to wake it.
func (d *dispatcher) pollEvery() time.Duration {
	p := d.c.opts.RetryBackoff / 2
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > 50*time.Millisecond {
		p = 50 * time.Millisecond
	}
	return p
}

// run drives the job to completion and returns the per-shard outcomes.
func (d *dispatcher) run() []shardOutcome {
	defer func() { d.c.queueDepth.Add(-int64(len(d.pending))) }()
	ctxDone := d.ctx.Done()
	for d.settledN < d.n {
		if d.ctx.Err() == nil {
			d.dispatch()
			d.maybeSpeculate()
		}
		timer := time.NewTimer(d.pollEvery())
		select {
		case r := <-d.results:
			timer.Stop()
			d.handle(r)
		case <-timer.C:
		case <-ctxDone:
			timer.Stop()
			ctxDone = nil // fire once; in-flight attempts self-cancel via d.ctx
			d.stopPending()
		}
	}
	return d.outcomes
}

// dispatch hands queued shards to workers with free capacity, in shard
// index order, honoring per-shard backoff gates and exclusions. When
// the queue has work but the fleet has no alive worker at all, it
// counts an idle-wait round and — after DefaultMaxAttempts such rounds with
// nothing in flight — fails the remaining shards.
func (d *dispatcher) dispatch() {
	now := time.Now()
	launched := false
	for idx := 0; idx < len(d.pending); {
		i := d.pending[idx]
		if now.Before(d.notBefore[i]) {
			idx++
			continue
		}
		w, ok := d.c.reg.acquireSlot(d.target, d.excluded[i], false)
		if !ok {
			idx++
			continue
		}
		d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
		d.c.queueDepth.Add(-1)
		d.launch(i, w, false)
		launched = true
	}
	if launched || len(d.pending) == 0 {
		d.stalls = 0
		return
	}
	if workers, _ := d.c.reg.aliveSlots(d.target); workers > 0 {
		// Capacity is the bottleneck, not liveness: shards whose backoff
		// or exclusions blocked them this round simply wait. A shard
		// blocked only by its exclusions while free capacity exists
		// clears them, so a recovered worker can take it next round
		// instead of the job failing with idle capacity.
		d.stalls = 0
		for _, i := range d.pending {
			if len(d.excluded[i]) > 0 &&
				d.c.reg.hasSlot(d.target, nil) && !d.c.reg.hasSlot(d.target, d.excluded[i]) {
				d.excluded[i] = make(map[string]bool)
			}
		}
		return
	}
	if d.inflightCount() > 0 || now.Before(d.nextStall) {
		return
	}
	// Queued work, nothing running, no alive worker: one idle-wait
	// round. The job survives DefaultMaxAttempts such rounds (paced by the
	// retry backoff schedule) before giving up, so a restarting fleet
	// has the same grace it had under the per-shard retry loop.
	d.stalls++
	d.c.shardsWaited.Add(1)
	d.nextStall = now.Add(d.c.backoffDelay(d.stalls))
	d.c.log.Warn("cluster: no alive worker for queued shards",
		"queued", len(d.pending), "round", d.stalls, "target", d.target,
		"trace", obs.TraceID(d.ctx))
	d.hooks.shard(ShardUpdate{Shard: -1, State: "waiting", Error: ErrNoWorkers.Error(),
		Queued: len(d.pending)})
	if d.stalls > DefaultMaxAttempts {
		for len(d.pending) > 0 {
			i := d.pending[0]
			d.unqueue(i)
			err := d.lastErr[i]
			if err == nil {
				err = ErrNoWorkers
			}
			d.lose(i, fmt.Errorf("shard %d lost after %d attempts: %w", i, d.attempts[i]+d.stalls, err))
		}
	}
}

// unqueue removes shard i from the pending queue.
func (d *dispatcher) unqueue(i int) {
	for idx, p := range d.pending {
		if p == i {
			d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
			d.c.queueDepth.Add(-1)
			return
		}
	}
}

// requeue puts shard i back on the queue (in index order) with a
// backoff gate before its next dispatch.
func (d *dispatcher) requeue(i int, delay time.Duration) {
	d.notBefore[i] = time.Now().Add(delay)
	idx := 0
	for idx < len(d.pending) && d.pending[idx] < i {
		idx++
	}
	d.pending = append(d.pending, 0)
	copy(d.pending[idx+1:], d.pending[idx:])
	d.pending[idx] = i
	d.c.queueDepth.Add(1)
}

// launch starts one execution of shard i on w (whose capacity slot the
// caller already reserved through acquireSlot).
func (d *dispatcher) launch(i int, w WorkerInfo, speculative bool) {
	actx, cancel := context.WithCancel(d.ctx)
	if speculative {
		d.specDone[i] = true
		d.c.shardsSpeculated.Add(1)
	} else {
		d.attempts[i]++
		if d.first[i] == "" {
			d.first[i] = w.ID
		}
	}
	at := &attemptState{
		shard: i, number: d.attempts[i], worker: w,
		speculative: speculative, cancel: cancel, started: time.Now(),
	}
	d.inflight[i] = append(d.inflight[i], at)
	d.c.shardsAssigned.Add(1)
	state := "assigned"
	if speculative {
		state = "speculated"
		d.c.log.Info("cluster: speculating straggler shard",
			"shard", i, "worker", w.ID, "attempt", at.number,
			"trace", obs.TraceID(d.ctx))
	}
	d.hooks.shard(ShardUpdate{Shard: i, Worker: w.ID, Attempt: at.number, State: state,
		Speculative: speculative, Queued: len(d.pending)})
	go d.runAttempt(actx, at)
}

// inflightCount tallies live attempts across unsettled shards.
func (d *dispatcher) inflightCount() int {
	n := 0
	for _, ats := range d.inflight {
		n += len(ats)
	}
	return n
}

// maybeSpeculate launches duplicate attempts for tail stragglers. The
// tail condition is the queue being empty: every worker that frees up
// from here on would sit idle, so duplicating a straggler costs
// capacity nothing else wants. The threshold is the completed-shard
// mean latency scaled by DefaultSpecFactor (floored so sub-millisecond shards
// don't speculate on jitter), and it needs DefaultSpecMinSamples completed
// shards before it means anything. One duplicate per shard, on an
// idle worker other than the one already running it.
func (d *dispatcher) maybeSpeculate() {
	if d.c.opts.DisableSpeculation || len(d.pending) > 0 || d.settledN == d.n {
		return
	}
	if len(d.durations) < DefaultSpecMinSamples {
		return
	}
	var sum float64
	for _, v := range d.durations {
		sum += v
	}
	threshold := sum / float64(len(d.durations)) * DefaultSpecFactor
	if threshold < specFloorMS {
		threshold = specFloorMS
	}
	now := time.Now()
	for i, ats := range d.inflight {
		if d.settled[i] || d.specDone[i] || len(ats) != 1 || ats[0].speculative {
			continue
		}
		at := ats[0]
		elapsed := float64(now.Sub(at.started).Milliseconds())
		if elapsed <= threshold {
			continue
		}
		w, ok := d.c.reg.acquireSlot(d.target, map[string]bool{at.worker.ID: true}, true)
		if !ok {
			return // no idle worker; re-check next wake
		}
		d.launch(i, w, true)
	}
}

// settle records shard i's final outcome.
func (d *dispatcher) settle(i int, o shardOutcome) {
	d.outcomes[i] = o
	d.settled[i] = true
	d.settledN++
}

// lose marks shard i permanently failed.
func (d *dispatcher) lose(i int, err error) {
	d.c.shardsLost.Add(1)
	d.c.log.Error("cluster: shard lost, failing fleet job",
		"shard", i, "attempts", d.attempts[i],
		"trace", obs.TraceID(d.ctx), "err", err)
	d.hooks.shard(ShardUpdate{Shard: i, Attempt: d.attempts[i], State: "lost",
		Error: err.Error(), Queued: len(d.pending)})
	d.settle(i, shardOutcome{err: err})
}

// stopPending settles every still-queued shard as stopped once the
// fleet context ends; in-flight attempts observe the same context and
// report their own stopped results.
func (d *dispatcher) stopPending() {
	st := runstate.FromContext(d.ctx)
	for len(d.pending) > 0 {
		i := d.pending[0]
		d.unqueue(i)
		d.settle(i, shardOutcome{stopped: st})
	}
}

// cancelLosers cancels shard i's other attempts after winner settled
// it — the losing half of a speculation race (or, symmetrically, a
// primary superseded by its duplicate). The canceled goroutine fans a
// CancelAndFetch to its worker and drains into the buffered results
// channel; the dispatcher does not wait for it.
func (d *dispatcher) cancelLosers(i int, winner *attemptState) {
	for _, at := range d.inflight[i] {
		if at == winner {
			continue
		}
		at.cancel()
		if at.speculative {
			d.c.speculationWasted.Add(1)
		}
		d.hooks.shard(ShardUpdate{Shard: i, Worker: at.worker.ID, Attempt: at.number,
			State: "lost-race", Speculative: at.speculative,
			ElapsedMS: time.Since(at.started).Milliseconds(), Queued: len(d.pending)})
	}
	d.inflight[i] = nil
}

// removeInflight drops one attempt from the in-flight set.
func (d *dispatcher) removeInflight(at *attemptState) {
	ats := d.inflight[at.shard]
	for idx, a := range ats {
		if a == at {
			d.inflight[at.shard] = append(ats[:idx], ats[idx+1:]...)
			return
		}
	}
}

// handle folds one finished attempt back into the job.
func (d *dispatcher) handle(r attemptResult) {
	i := r.at.shard
	d.removeInflight(r.at)
	if d.settled[i] {
		// A race loser (or an attempt that finished after the fleet
		// context settled the shard): its outcome was accounted for at
		// cancel time.
		return
	}
	switch {
	case r.stopped != "":
		d.settle(i, shardOutcome{view: r.view, got: r.got, stopped: r.stopped})
	case r.raceLost:
		// Canceled without the shard being settled — only possible if
		// settle raced the cancel; the winner's result is on the channel.
	case r.err == nil:
		d.c.shardsDone.Add(1)
		if r.at.speculative {
			d.c.speculationWins.Add(1)
		} else if d.first[i] != "" && d.first[i] != r.at.worker.ID {
			d.c.shardsStolen.Add(1)
		}
		d.durations = append(d.durations, float64(r.elapsedMS))
		d.hooks.shard(ShardUpdate{Shard: i, Worker: r.at.worker.ID, Attempt: r.at.number,
			State: "done", Speculative: r.at.speculative,
			ElapsedMS: r.elapsedMS, Queued: len(d.pending)})
		d.settle(i, shardOutcome{view: r.view, got: true})
		d.cancelLosers(i, r.at)
	default:
		d.lastErr[i] = r.err
		d.hooks.shard(ShardUpdate{Shard: i, Worker: r.at.worker.ID, Attempt: r.at.number,
			State: "failed", Speculative: r.at.speculative, Error: r.err.Error(),
			RewindPoints: r.points, ElapsedMS: r.elapsedMS, Queued: len(d.pending)})
		if r.at.speculative {
			d.c.speculationWasted.Add(1)
		} else {
			d.excluded[i][r.at.worker.ID] = true
		}
		if len(d.inflight[i]) > 0 {
			// The shard's other attempt (primary or duplicate) is still
			// running and will decide it; don't pile on a third execution.
			return
		}
		if d.attempts[i] >= DefaultMaxAttempts {
			d.lose(i, fmt.Errorf("shard %d lost after %d attempts: %w", i, d.attempts[i], r.err))
			return
		}
		d.c.shardsRetried.Add(1)
		d.c.log.Warn("cluster: shard attempt failed, re-queueing",
			"worker", r.at.worker.ID, "shard", i, "attempt", r.at.number,
			"trace", obs.TraceID(d.ctx), "err", r.err)
		d.requeue(i, d.c.backoffDelay(d.attempts[i]))
	}
}

// runAttempt executes one attempt on its worker and reports the result
// to the dispatcher. It is the only code that touches the worker for
// this attempt: submit, await (with the liveness watchdog), and the
// cancel fan-out when either the fleet context or the attempt's own
// context (a lost speculation race) ends. One span per attempt keeps
// retry and speculation cost explicit in the trace.
func (d *dispatcher) runAttempt(ctx context.Context, at *attemptState) {
	c := d.c
	i, w := at.shard, at.worker
	actx, sp := obs.StartSpan(ctx, "shard.execute",
		"shard", strconv.Itoa(i), "worker", w.ID, "attempt", strconv.Itoa(at.number))
	if at.speculative {
		sp.SetAttr("speculative", "true")
	}
	// Points streamed by this attempt; a retry re-runs them, so they
	// are reported back for the aggregate progress rewind. A
	// speculative duplicate re-evaluates points its primary already
	// streamed, so its stream is not forwarded — the primary's counted
	// points stay valid (identical bytes) and the job-end reconcile
	// squares the remainder.
	points := 0
	onPoint := func(p PointEvent) {
		points++
		if !at.speculative {
			d.hooks.point(p)
		}
	}
	var view JobView
	// A cancel that lands mid-submit must not abort the POST: the worker
	// may already have queued the job, and only its ID lets the cancel
	// fan-out below reach it. The submit keeps actx's trace but not its
	// cancellation.
	sctx, scancel := context.WithTimeout(context.WithoutCancel(actx), controlTimeout)
	queued, err := d.submit(sctx, w.Addr, i)
	scancel()
	if err == nil {
		view, err = c.awaitWithWatchdog(actx, w, queued.ID, onPoint)
	}

	if st := runstate.FromContext(d.ctx); st != "" {
		// Fleet job canceled (or deadline-expired): fan the cancel out
		// to the worker and collect its terminal partial view.
		if queued.ID != "" {
			view, err = c.client.CancelAndFetch(w.Addr, queued.ID)
		}
		c.ingestSpans(d.ctx, &view)
		sp.SetAttr("state", "canceled")
		sp.End()
		c.reg.release(w.ID, err == nil)
		d.results <- attemptResult{at: at, view: view, got: err == nil, stopped: st, points: points}
		return
	}
	if err != nil && ctx.Err() != nil {
		// The attempt's own context was canceled while the fleet is
		// alive: the other attempt won the race. Cancel the worker job,
		// keep its spans for the trace, and bow out without smearing the
		// worker's failure record.
		if queued.ID != "" {
			if v, cerr := c.client.CancelAndFetch(w.Addr, queued.ID); cerr == nil {
				view = v
			}
		}
		c.ingestSpans(d.ctx, &view)
		sp.SetAttr("state", "lost-race")
		sp.End()
		c.reg.releaseOnly(w.ID)
		d.results <- attemptResult{at: at, raceLost: true, points: points,
			elapsedMS: time.Since(at.started).Milliseconds()}
		return
	}

	elapsed := time.Since(at.started).Milliseconds()
	var se *StatusError
	switch {
	case err == nil && view.Status == "done":
		c.ingestSpans(d.ctx, &view)
		sp.SetAttr("state", "done")
		sp.End()
		c.reg.release(w.ID, true)
		d.results <- attemptResult{at: at, view: view, got: true, elapsedMS: elapsed}
		return
	case err == nil:
		// failed or canceled on the worker side while the fleet is
		// alive (bad factory, worker-local timeout): re-queue elsewhere.
		c.ingestSpans(d.ctx, &view)
		err = fmt.Errorf("worker %s: shard job %s: %s", w.ID, view.Status, view.Error)
	case errors.As(err, &se):
		// A well-formed refusal (queue full, validation) from a live
		// worker: re-queue elsewhere, but the worker stays alive —
		// marking it down would let the liveness watchdog reap its
		// other, perfectly healthy in-flight shards.
	default:
		// Transport-level failure: the worker is likely gone. Mark it
		// down so the dispatcher stops picking it before its TTL
		// expires, and best-effort cancel the orphaned job in case the
		// worker is actually alive behind a broken stream.
		sp.SetAttr("lost", "true")
		c.reg.markDown(w.ID)
		c.log.Warn("cluster: marking worker down after transport failure",
			"worker", w.ID, "addr", w.Addr, "shard", i, "attempt", at.number,
			"trace", obs.TraceID(d.ctx), "err", err)
		if queued.ID != "" {
			_ = c.client.Cancel(w.Addr, queued.ID)
		}
	}
	sp.SetAttr("state", "failed")
	sp.SetAttr("error", err.Error())
	sp.End()
	c.reg.release(w.ID, false)
	d.results <- attemptResult{at: at, err: err, points: points, elapsedMS: elapsed}
}
