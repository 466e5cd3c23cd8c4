package service

import (
	"time"

	"mpstream/internal/obs"
)

// initObs wires the server's telemetry: the metrics registry (with
// scrape-time collectors over the queue, jobs, caches, cluster and
// simulator) and the shared logger. Called once from New, before the
// job store serves submissions.
func (s *Server) initObs(opts Options) {
	s.log = opts.Logger
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	if opts.DisableMetrics {
		s.jobs.onFinish = s.jobFinished // log lines still flow
		return
	}
	s.reg = obs.NewRegistry()
	// Span recording rides the DisableMetrics switch so the overhead
	// benchmark's uninstrumented baseline stays span-free too.
	s.rec = obs.NewRecorder(opts.Origin, obs.DefaultSpanCapacity)
	s.jobs.rec = s.rec
	s.jobs.onFinish = s.jobFinished

	s.reg.GaugeFunc("mpstream_queue_depth",
		"Jobs queued but not yet claimed by a worker.",
		func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("mpstream_queue_capacity",
		"Bound of the job queue.",
		func() float64 { return float64(cap(s.queue)) })
	s.reg.GaugeFunc("mpstream_workers",
		"Size of the job worker pool.",
		func() float64 { return float64(s.opts.Workers) })

	// Jobs by state: collected at scrape time from the store so gauges
	// track transitions without per-transition bookkeeping. Every state
	// appears (zeros included) so dashboards see a stable series set.
	s.reg.Collect(func(emit func(obs.Sample)) {
		for st, n := range s.jobs.counts() {
			emit(obs.Sample{
				Name: "mpstream_jobs", Help: "Retained jobs by lifecycle state.",
				Kind: "gauge", Labels: []string{"state", string(st)}, Value: float64(n),
			})
		}
	})

	// The three LRU caches share one family set, split by a cache label.
	s.reg.Collect(func(emit func(obs.Sample)) {
		for _, c := range []struct {
			name  string
			stats CacheStats
		}{
			{"run", s.cache.stats()},
			{"optimize", s.optCache.stats()},
			{"surface", s.surfCache.stats()},
		} {
			l := []string{"cache", c.name}
			emit(obs.Sample{Name: "mpstream_cache_hits_total",
				Help: "Result-cache hits.", Kind: "counter", Labels: l, Value: float64(c.stats.Hits)})
			emit(obs.Sample{Name: "mpstream_cache_misses_total",
				Help: "Result-cache misses.", Kind: "counter", Labels: l, Value: float64(c.stats.Misses)})
			emit(obs.Sample{Name: "mpstream_cache_evictions_total",
				Help: "Result-cache evictions.", Kind: "counter", Labels: l, Value: float64(c.stats.Evictions)})
			emit(obs.Sample{Name: "mpstream_cache_entries",
				Help: "Result-cache resident entries.", Kind: "gauge", Labels: l, Value: float64(c.stats.Entries)})
			emit(obs.Sample{Name: "mpstream_cache_capacity",
				Help: "Result-cache capacity.", Kind: "gauge", Labels: l, Value: float64(c.stats.Capacity)})
		}
	})

	if c := s.opts.Cluster; c != nil {
		s.reg.Collect(func(emit func(obs.Sample)) {
			alive, total := c.Counts()
			emit(obs.Sample{Name: "mpstream_cluster_workers",
				Help: "Registered fleet workers by liveness.", Kind: "gauge",
				Labels: []string{"state", "alive"}, Value: float64(alive)})
			emit(obs.Sample{Name: "mpstream_cluster_workers",
				Kind: "gauge", Labels: []string{"state", "total"}, Value: float64(total)})
			fs := c.Stats()
			for _, sh := range []struct {
				state string
				v     uint64
			}{
				{"assigned", fs.ShardsAssigned},
				{"done", fs.ShardsDone},
				{"retried", fs.ShardsRetried},
				{"waited", fs.ShardsWaited},
				{"lost", fs.ShardsLost},
			} {
				emit(obs.Sample{Name: "mpstream_cluster_shards_total",
					Help: "Fleet shard scheduling outcomes.", Kind: "counter",
					Labels: []string{"state", sh.state}, Value: float64(sh.v)})
			}
			emit(obs.Sample{Name: "mpstream_cluster_shard_queue_depth",
				Help: "Shards queued for dispatch across in-flight fleet jobs.", Kind: "gauge",
				Value: float64(fs.QueueDepth)})
			emit(obs.Sample{Name: "mpstream_cluster_shards_stolen_total",
				Help: "Shards completed by a different worker than first assigned.", Kind: "counter",
				Value: float64(fs.ShardsStolen)})
			emit(obs.Sample{Name: "mpstream_cluster_shards_speculated_total",
				Help: "Speculative duplicate attempts launched for tail stragglers.", Kind: "counter",
				Value: float64(fs.ShardsSpeculated)})
			emit(obs.Sample{Name: "mpstream_cluster_speculation_wins_total",
				Help: "Speculative attempts that finished before their primary.", Kind: "counter",
				Value: float64(fs.SpeculationWins)})
			emit(obs.Sample{Name: "mpstream_cluster_speculation_wasted_total",
				Help: "Speculative attempts that lost the race or failed.", Kind: "counter",
				Value: float64(fs.SpeculationWasted)})
			emit(obs.Sample{Name: "mpstream_cluster_remote_evals_total",
				Help: "Optimizer evaluations served by fleet workers.", Kind: "counter",
				Value: float64(fs.RemoteEvals)})
			for _, w := range c.Workers() {
				l := []string{"worker", w.ID}
				emit(obs.Sample{Name: "mpstream_cluster_worker_inflight",
					Help: "Shards in flight per worker.", Kind: "gauge",
					Labels: l, Value: float64(w.Inflight)})
				emit(obs.Sample{Name: "mpstream_cluster_worker_shards_done_total",
					Help: "Shards completed per worker.", Kind: "counter",
					Labels: l, Value: float64(w.ShardsDone)})
				emit(obs.Sample{Name: "mpstream_cluster_worker_failures_total",
					Help: "Shard failures per worker.", Kind: "counter",
					Labels: l, Value: float64(w.Failures)})
				emit(obs.Sample{Name: "mpstream_cluster_worker_heartbeat_age_seconds",
					Help: "Seconds since each worker was last seen.", Kind: "gauge",
					Labels: l, Value: time.Since(w.LastSeen).Seconds()})
				if age := time.Since(w.FirstSeen).Seconds(); age > 0 && !w.FirstSeen.IsZero() {
					emit(obs.Sample{Name: "mpstream_cluster_worker_shard_rate",
						Help: "Shards completed per second since the worker first registered.",
						Kind: "gauge", Labels: l, Value: float64(w.ShardsDone) / age})
				}
			}
		})
	}

	// Baseline monitor families. The verdict counter is pre-seeded so
	// dashboards and the smoke script can read a zero before the first
	// check (and so rate() works from the first increment).
	for _, v := range []string{"pass", "warn", "fail"} {
		s.reg.Counter("mpstream_baseline_checks_total",
			"Baseline drift checks completed, by verdict.", "verdict", v)
	}
	s.reg.GaugeFunc("mpstream_baselines",
		"Registered baseline entries.",
		func() float64 {
			entries, err := s.opts.Baselines.List()
			if err != nil {
				return 0
			}
			return float64(len(entries))
		})
	s.reg.Collect(func(emit func(obs.Sample)) {
		now := time.Now()
		s.checkMu.Lock()
		defer s.checkMu.Unlock()
		for name, rep := range s.checkState {
			l := []string{"baseline", name}
			emit(obs.Sample{Name: "mpstream_baseline_drift_ratio",
				Help: "Worst |delta|/band of each baseline's latest check (<= 1 is within tolerance).",
				Kind: "gauge", Labels: l, Value: rep.DriftRatio})
			emit(obs.Sample{Name: "mpstream_baseline_last_check_age_seconds",
				Help: "Seconds since each baseline's latest check verdict.",
				Kind: "gauge", Labels: l, Value: now.Sub(rep.Checked).Seconds()})
		}
	})

	// Span-ring visibility: occupancy plus the overwrite counter, so
	// trace truncation (404s on /v1/jobs/{id}/trace for old jobs) is
	// diagnosable instead of silent.
	s.reg.GaugeFunc("mpstream_obs_spans_stored",
		"Spans resident in the trace ring.",
		func() float64 { return float64(s.rec.StoreLen()) })
	s.reg.CounterFunc("mpstream_obs_spans_dropped_total",
		"Spans overwritten by the bounded trace ring.",
		func() float64 { return float64(s.rec.StoreDrops()) })

	obs.RegisterSimMetrics(s.reg)
}

// jobSubmitted records one accepted submission; called after enqueue
// succeeds.
func (s *Server) jobSubmitted(j *Job) {
	snap := j.Snapshot()
	if s.reg != nil {
		s.reg.Counter("mpstream_jobs_submitted_total",
			"Jobs accepted onto the queue.", "kind", string(snap.Kind)).Inc()
	}
	s.log.Debug("job submitted",
		"job", snap.ID, "kind", snap.Kind, "target", snap.Target, "trace", snap.Trace)
}

// jobFinished observes one terminal snapshot: outcome counters, the
// run-duration histogram, and a completion log line (warning for
// failures). Hooked into every job via jobStore.onFinish.
func (s *Server) jobFinished(v View) {
	if s.reg != nil {
		s.reg.Counter("mpstream_jobs_finished_total",
			"Jobs reaching a terminal state.",
			"kind", string(v.Kind), "status", string(v.Status)).Inc()
		if !v.Started.IsZero() && !v.Finished.Before(v.Started) {
			s.reg.Histogram("mpstream_job_duration_seconds",
				"Run duration of finished jobs (queued jobs that never ran are excluded).",
				obs.DurationBuckets, "kind", string(v.Kind)).
				Observe(v.Finished.Sub(v.Started).Seconds())
		}
	}
	if v.Status == StatusFailed {
		s.log.Warn("job failed",
			"job", v.ID, "kind", v.Kind, "target", v.Target, "trace", v.Trace, "err", v.Error)
		return
	}
	s.log.Debug("job finished",
		"job", v.ID, "kind", v.Kind, "target", v.Target, "status", v.Status,
		"trace", v.Trace, "cached", v.Cached)
}
