package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// ladderInput is one surface-ladder unit: a surface measured with an
// explicit configuration, or the knee probe of a benchmark design point.
type ladderInput struct {
	Kind    string          `json:"kind"` // "surface" or "knee"
	Target  string          `json:"target"`
	Surface *surface.Config `json:"surface,omitempty"`
	Point   *core.Config    `json:"point,omitempty"`
}

func (in ladderInput) key() string {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return string(b)
}

// surfaceConfig is the surface the unit measures.
func (in ladderInput) surfaceConfig() surface.Config {
	if in.Kind == "knee" {
		return in.Point.SurfaceProbe()
	}
	return *in.Surface
}

// kneeProbes is how many seeded design points per target get a knee
// probe.
const kneeProbes = 2

// ladderInputs is the workload's fixed, seeded work: the default
// surface of every target, then knee probes of seeded design points
// (their kernel and access pattern), kneeProbes per target.
func ladderInputs(seed int64, minimal bool) []ladderInput {
	ids := workloadTargets(minimal)
	def := surface.Config{}
	if minimal {
		def = surface.Config{Rates: []float64{0.5, 1}, ArrayBytes: 1 << 20, WindowTxns: 512, ProbeHops: 32}
	}
	var ins []ladderInput
	for _, id := range ids {
		cfg := def
		ins = append(ins, ladderInput{Kind: "surface", Target: id, Surface: &cfg})
	}
	rng := rand.New(rand.NewSource(seed))
	patterns := []mem.Pattern{mem.ContiguousPattern(), mem.ColMajorPattern(), mem.StridedPattern(4), mem.StridedPattern(16)}
	for _, id := range ids {
		for i := 0; i < kneeProbes; i++ {
			cfg := core.DefaultConfig()
			cfg.Ops = []kernel.Op{kernel.Ops()[rng.Intn(len(kernel.Ops()))]}
			cfg.Pattern = patterns[rng.Intn(len(patterns))]
			ins = append(ins, ladderInput{Kind: "knee", Target: id, Point: &cfg})
		}
	}
	return ins
}

// ladder measures surfaces and knee probes on devices built at set-up.
type ladder struct {
	devs   map[string]device.Device
	inputs []ladderInput
}

func newSurfaceLadder(o options) (fixture, error) {
	devs := make(map[string]device.Device)
	for _, d := range targets.All() {
		devs[d.Info().ID] = d
	}
	return &ladder{devs: devs, inputs: ladderInputs(o.seed, o.minimal)}, nil
}

func (l *ladder) close() {}

func (l *ladder) pass(tr *tracer) []unit {
	ctx := context.Background()
	var rec *obs.Recorder
	var trace string
	if tr != nil {
		rec, trace = obs.NewRecorder("perfbench", 0), obs.NewTraceID()
		ctx = obs.WithTrace(obs.WithRecorder(ctx, rec), trace)
	}
	units := make([]unit, 0, len(l.inputs))
	for _, in := range l.inputs {
		dev := l.devs[in.Target]
		cfg := in.surfaceConfig()
		u := unit{kind: in.Kind, key: in.key()}
		t0 := time.Now()
		switch {
		case in.Kind == "knee" && tr == nil:
			var knee float64
			knee, u.err = core.KneeGBps(dev, *in.Point)
			u.digest = kneeDigest(knee)
		default:
			// Traced knee probes measure the same probe surface through
			// the context-taking entry point, so its spans are recorded.
			var s *surface.Surface
			s, u.err = core.RunSurfaceContext(ctx, dev, cfg)
			if u.err == nil {
				u.digest = surfaceDigest(in, s)
			}
		}
		u.latency = time.Since(t0)
		units = append(units, u)
		if tr != nil {
			tr.addMS("surface.generate_ms", u.latency)
			tr.replay(func() { replayLoaded(tr, dev, cfg) })
		}
	}
	if tr != nil {
		addSpans(tr, rec.Spans(trace))
	}
	return units
}

// surfaceDigest digests a unit's output: the whole surface, or for a
// knee probe the knee bandwidth core.KneeGBps reports.
func surfaceDigest(in ladderInput, s *surface.Surface) string {
	if in.Kind == "knee" {
		return kneeDigest(s.MinKneeGBps())
	}
	return core.DigestJSON(s)
}

func kneeDigest(gbps float64) string {
	return core.DigestJSON(strconv.FormatFloat(gbps, 'g', -1, 64))
}

// surfaceReferee recomputes every surface curve by curve, as separate
// shards merged back together — the path a fleet surface takes — which
// must reproduce the single-call surface exactly.
type surfaceReferee struct {
	memo map[string]string
}

func newSurfaceReferee(options) (referee, error) {
	return &surfaceReferee{memo: make(map[string]string)}, nil
}

func (r *surfaceReferee) reference(key string) (string, error) {
	if d, ok := r.memo[key]; ok {
		return d, nil
	}
	var in ladderInput
	if err := json.Unmarshal([]byte(key), &in); err != nil {
		return "", err
	}
	dev, err := targets.ByID(in.Target)
	if err != nil {
		return "", err
	}
	cfg := in.surfaceConfig()
	var shards []*surface.Surface
	for i := 0; i < cfg.CurveCount(); i++ {
		s, err := core.RunSurfaceShard(context.Background(), dev, cfg, i, i+1, nil)
		if err != nil {
			return "", fmt.Errorf("curve %d: %w", i, err)
		}
		shards = append(shards, s)
	}
	s, err := surface.MergeShards(shards)
	if err != nil {
		return "", err
	}
	d := surfaceDigest(in, s)
	r.memo[key] = d
	return d, nil
}

func (*surfaceReferee) close() {}

// addSpans folds the program's own spans into the layer metrics.
func addSpans(tr *tracer, spans []obs.Span) {
	for _, sp := range spans {
		d := sp.Duration
		switch sp.Name {
		case "surface.idle":
			tr.addMS("surface.idle_probe_ms", d)
		case "surface.rung":
			tr.addMS("surface.rung_ms", d)
			tr.add("surface.rungs", 1)
		case "sweep.point", "optimize.eval":
			tr.addMS("search.eval_ms", d)
		case "shard.execute":
			tr.addMS("cluster.shard_ms", d)
		case "fleet.merge":
			tr.addMS("cluster.merge_ms", d)
		}
	}
}
