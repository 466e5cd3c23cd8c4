package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/cluster"
)

// ErrNoBaseline is wrapped by baseline lookups for unknown names; the
// HTTP layer maps it to 404.
var ErrNoBaseline = errors.New("service: unknown baseline")

// BaselineRequest is the POST /v1/baselines body and CheckRequest the
// POST /v1/check body; the cluster layer owns their wire shapes.
type (
	BaselineRequest = cluster.BaselineRequest
	CheckRequest    = cluster.CheckRequest
)

// BaselineView pairs a stored entry with its latest check verdict (nil
// until the first check since this process started — verdicts are
// monitor state, not part of the durable entry).
type BaselineView struct {
	baseline.Entry
	LastCheck *baseline.Report `json:"last_check,omitempty"`
}

// RecordBaseline registers (or re-records, preserving Created) a named
// baseline from the request's single source and returns the stored
// entry.
func (s *Server) RecordBaseline(req BaselineRequest) (baseline.Entry, error) {
	if err := baseline.ValidateName(req.Name); err != nil {
		return baseline.Entry{}, err
	}
	res, surf, target := req.Result, req.Surface, req.Target
	if req.FromJob != "" {
		if res != nil || surf != nil {
			return baseline.Entry{}, errors.New("service: baseline needs exactly one source (from_job, result or surface)")
		}
		j, ok := s.jobs.get(req.FromJob)
		if !ok {
			return baseline.Entry{}, fmt.Errorf("service: unknown job %q", req.FromJob)
		}
		v := j.Snapshot()
		if v.Status != StatusDone {
			return baseline.Entry{}, fmt.Errorf("service: job %s is %s; baselines record done jobs only", v.ID, v.Status)
		}
		switch {
		case v.Result != nil:
			res = v.Result
		case v.Surface != nil:
			surf = v.Surface
		default:
			return baseline.Entry{}, fmt.Errorf("service: job %s (%s) carries no run result or surface", v.ID, v.Kind)
		}
		if target == "" {
			target = v.Target
		}
	}
	if (res != nil) == (surf != nil) {
		return baseline.Entry{}, errors.New("service: baseline needs exactly one source (from_job, result or surface)")
	}
	if target == "" {
		return baseline.Entry{}, errors.New("service: baseline needs a target (or a from_job to inherit it from)")
	}
	if _, err := s.checkTarget(target); err != nil {
		return baseline.Entry{}, err
	}
	if err := req.Tolerance.Validate(); err != nil {
		return baseline.Entry{}, err
	}
	now := time.Now().UTC()
	e := baseline.Entry{
		Name:      req.Name,
		Target:    target,
		Tolerance: req.Tolerance.WithDefaults(),
		Created:   now,
		Updated:   now,
	}
	if res != nil {
		cfg := res.Config
		if req.Config != nil {
			cfg = *req.Config
		}
		cfg = cfg.Canonical()
		if err := cfg.Validate(); err != nil {
			return baseline.Entry{}, err
		}
		e.Kind = baseline.KindRun
		e.Config = &cfg
		e.Fingerprint = cfg.Fingerprint(target)
		e.Reference = baseline.FromResult(res)
	} else {
		if surf.Stopped != "" {
			return baseline.Entry{}, fmt.Errorf("service: surface is partial (stopped: %s); baselines record complete measurements only", surf.Stopped)
		}
		scfg := surf.Config
		if req.SurfaceConfig != nil {
			scfg = *req.SurfaceConfig
		}
		scfg = scfg.WithDefaults()
		if err := scfg.Validate(); err != nil {
			return baseline.Entry{}, err
		}
		e.Kind = baseline.KindSurface
		e.SurfaceConfig = &scfg
		e.Fingerprint = surfaceFingerprint(target, scfg, 0, scfg.CurveCount())
		e.Reference = baseline.FromSurface(surf)
	}
	if old, ok, err := s.opts.Baselines.Get(req.Name); err == nil && ok {
		e.Created = old.Created
	}
	if err := s.opts.Baselines.Put(e); err != nil {
		return baseline.Entry{}, err
	}
	s.log.Info("baseline recorded", "baseline", e.Name, "kind", e.Kind,
		"target", e.Target, "fingerprint", e.Fingerprint)
	return e, nil
}

// Baselines lists stored entries, each with its latest check verdict.
func (s *Server) Baselines() ([]BaselineView, error) {
	entries, err := s.opts.Baselines.List()
	if err != nil {
		return nil, err
	}
	views := make([]BaselineView, len(entries))
	s.checkMu.Lock()
	for i, e := range entries {
		views[i] = BaselineView{Entry: e}
		if rep, ok := s.checkState[e.Name]; ok {
			r := rep
			views[i].LastCheck = &r
		}
	}
	s.checkMu.Unlock()
	return views, nil
}

// Baseline looks one entry up with its latest check verdict.
func (s *Server) Baseline(name string) (BaselineView, error) {
	e, ok, err := s.opts.Baselines.Get(name)
	if err != nil {
		return BaselineView{}, err
	}
	if !ok {
		return BaselineView{}, fmt.Errorf("%w %q", ErrNoBaseline, name)
	}
	v := BaselineView{Entry: e}
	s.checkMu.Lock()
	if rep, ok := s.checkState[name]; ok {
		r := rep
		v.LastCheck = &r
	}
	s.checkMu.Unlock()
	return v, nil
}

// DeleteBaseline removes a stored entry and its monitor state.
func (s *Server) DeleteBaseline(name string) error {
	ok, err := s.opts.Baselines.Delete(name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w %q", ErrNoBaseline, name)
	}
	s.checkMu.Lock()
	delete(s.checkState, name)
	s.checkMu.Unlock()
	s.log.Info("baseline deleted", "baseline", name)
	return nil
}

// mergeTolerance overlays the nonzero fields of an override onto the
// entry's stored bands (zero = inherit; negative = disable a family).
func mergeTolerance(base baseline.Tolerance, o baseline.Tolerance) baseline.Tolerance {
	if o.GBpsFrac != 0 {
		base.GBpsFrac = o.GBpsFrac
	}
	if o.NsFrac != 0 {
		base.NsFrac = o.NsFrac
	}
	if o.KneeFrac != 0 {
		base.KneeFrac = o.KneeFrac
	}
	if o.RungFrac != 0 {
		base.RungFrac = o.RungFrac
	}
	if o.WarnFrac != 0 {
		base.WarnFrac = o.WarnFrac
	}
	return base
}

// SubmitCheck validates and enqueues a re-measurement of the named
// baseline's configuration. The entry is snapshotted at submit time, so
// a concurrent re-record or delete never changes what a queued check
// compares against. The stored configuration passes the same admission
// check a /v1/run or /v1/surface request would — limits may have
// changed since it was recorded. Checks deliberately bypass the result
// and surface caches: the whole point of a check is a fresh
// measurement.
func (s *Server) SubmitCheck(ctx context.Context, name string, tol *baseline.Tolerance, timeout time.Duration) (*Job, error) {
	e, ok, err := s.opts.Baselines.Get(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoBaseline, name)
	}
	resolved := e.Tolerance
	if tol != nil {
		if err := tol.Validate(); err != nil {
			return nil, err
		}
		resolved = mergeTolerance(resolved, *tol)
	}
	var fill func(j *Job)
	switch e.Kind {
	case baseline.KindRun:
		cfg, err := s.admitRun(e.Target, *e.Config)
		if err != nil {
			return nil, err
		}
		fill = func(j *Job) { j.cfg = cfg }
	case baseline.KindSurface:
		cfg, err := s.admitSurface(e.Target, *e.SurfaceConfig)
		if err != nil {
			return nil, err
		}
		fill = func(j *Job) { j.scfg, j.lo, j.hi = cfg, 0, cfg.CurveCount() }
	default:
		return nil, fmt.Errorf("service: baseline %q has unknown kind %q", e.Name, e.Kind)
	}
	return s.submit(ctx, KindCheck, e.Target, timeout, func(j *Job) {
		fill(j)
		j.bentry, j.btol, j.fleet = e, resolved, true
		j.view.Fingerprint = e.Fingerprint
	})
}

// verdict compares a check's fresh measurement against its baseline —
// applying the drift-injection perturbation first, when configured —
// and records the outcome in the monitor state, metric families, log
// and (for non-pass verdicts) the alert feed. A fail verdict is a
// successfully completed check: the job still lands in done, and the
// CLI exit code, metrics and alert feed carry the severity.
func (s *Server) verdict(j *Job, measured baseline.Reference, partial bool) *baseline.Report {
	if f := s.opts.CheckPerturb; f > 0 && f != 1 {
		measured = measured.Scale(f)
	}
	rep := baseline.Compare(j.bentry, measured, j.btol, partial)
	s.recordCheck(j.ID(), rep)
	return &rep
}

func (s *Server) recordCheck(jobID string, rep baseline.Report) {
	if s.reg != nil {
		s.reg.Counter("mpstream_baseline_checks_total",
			"Baseline drift checks completed, by verdict.",
			"verdict", rep.Verdict).Inc()
	}
	s.checkMu.Lock()
	s.checkState[rep.Baseline] = rep
	s.checkMu.Unlock()
	if rep.Verdict == baseline.VerdictPass {
		s.log.Info("baseline check passed", "baseline", rep.Baseline, "job", jobID,
			"drift_ratio", rep.DriftRatio, "partial", rep.Partial)
		return
	}
	s.log.Warn("baseline drift detected", "baseline", rep.Baseline, "job", jobID,
		"verdict", rep.Verdict, "drift_ratio", rep.DriftRatio,
		"violations", len(rep.Violations), "partial", rep.Partial)
	s.alerts.publish(Alert{Job: jobID, Report: rep})
}

// sentinel is the scheduled re-check loop: every interval it submits
// one check per registered baseline through the ordinary job queue (so
// sentinel checks share workers, events, spans and fleet distribution
// with user-submitted ones), skipping baselines whose previous
// sentinel check is still in flight.
func (s *Server) sentinel(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.sentinelTick()
		}
	}
}

func (s *Server) sentinelTick() {
	entries, err := s.opts.Baselines.List()
	if err != nil {
		s.log.Warn("sentinel: listing baselines failed", "error", err)
		return
	}
	for _, e := range entries {
		s.checkMu.Lock()
		busy := s.checkInflight[e.Name]
		if !busy {
			s.checkInflight[e.Name] = true
		}
		s.checkMu.Unlock()
		if busy {
			continue
		}
		j, err := s.SubmitCheck(context.Background(), e.Name, nil, 0)
		if err != nil {
			s.checkMu.Lock()
			delete(s.checkInflight, e.Name)
			s.checkMu.Unlock()
			s.log.Warn("sentinel: check submission failed", "baseline", e.Name, "error", err)
			continue
		}
		go func(name string, j *Job) {
			<-j.Done()
			s.checkMu.Lock()
			delete(s.checkInflight, name)
			s.checkMu.Unlock()
		}(e.Name, j)
	}
}

// Alert is one NDJSON record of GET /v1/baselines/alerts: a non-pass
// check verdict, in emission order.
type Alert struct {
	// Seq numbers alerts server-wide, starting at 1; gaps on a live
	// stream mean the bounded history dropped records.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Job is the check job that produced the verdict.
	Job    string          `json:"job,omitempty"`
	Report baseline.Report `json:"report"`
}

// maxAlertHistory bounds the replayable alert backlog.
const maxAlertHistory = 256

// alertLog is the server-wide bounded publish/subscribe feed of
// non-pass verdicts — the eventLog pattern, minus the per-job scoping.
type alertLog struct {
	mu      sync.Mutex
	seq     uint64
	history []Alert
	subs    map[chan Alert]struct{}
}

func (l *alertLog) publish(a Alert) {
	l.mu.Lock()
	l.seq++
	a.Seq = l.seq
	a.Time = time.Now().UTC()
	l.history = append(l.history, a)
	if len(l.history) > maxAlertHistory {
		l.history = l.history[len(l.history)-maxAlertHistory:]
	}
	for ch := range l.subs {
		select {
		case ch <- a:
		default: // slow subscriber: drop, the Seq gap tells the story
		}
	}
	l.mu.Unlock()
}

func (l *alertLog) subscribe() (backlog []Alert, ch <-chan Alert) {
	c := make(chan Alert, subscriberBuffer)
	l.mu.Lock()
	backlog = append([]Alert(nil), l.history...)
	if l.subs == nil {
		l.subs = make(map[chan Alert]struct{})
	}
	l.subs[c] = struct{}{}
	l.mu.Unlock()
	return backlog, c
}

func (l *alertLog) unsubscribe(ch <-chan Alert) {
	l.mu.Lock()
	for c := range l.subs {
		if c == ch {
			delete(l.subs, c)
			break
		}
	}
	l.mu.Unlock()
}
