// Package search is the adaptive design-space optimizer of the
// MP-STREAM reproduction: budgeted, strategy-pluggable search over the
// discrete tuning-knob grid a dse.Space describes, looking for the
// configuration that maximizes sustained bandwidth for one kernel on
// one device.
//
// Where dse.Explore enumerates every grid point, this package treats
// the grid as a lattice (dse.Space's Dims/At/Neighbors API) and lets a
// Strategy decide which points to simulate: exhaustive (grid order,
// identical results to Explore), random sampling, hill climbing with
// random restarts, and simulated annealing. All strategies share one
// Engine that
//
//   - enforces an evaluation budget (unique simulations, the expensive
//     operation — on real FPGAs each one is an hours-long compile);
//   - deduplicates by core.Config.Fingerprint, so a neighbor revisited
//     by a random walk is never simulated twice and never bills the
//     budget;
//   - records an evaluation trace (what was tried, in order, and when
//     the incumbent best improved);
//   - ranks everything it saw into a dse.Exploration and a
//     bandwidth-versus-FPGA-resources Pareto front.
//
// Stochastic strategies draw exclusively from a rand.Rand seeded by
// Options.Seed, so a (strategy, budget, seed) triple reproduces its
// run bit-for-bit — which is what lets the service layer cache
// optimizer results by request fingerprint.
package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/runstate"
)

// Evaluator evaluates one configuration into a Point. The engine calls
// it at most once per canonical configuration; implementations carry
// the device (or, in the service layer, a shared result cache in front
// of one). fingerprint is the dedup key the engine already computed
// for cfg, so cache-backed evaluators need not hash it again.
type Evaluator func(cfg core.Config, label, fingerprint string) dse.Point

// Options selects and parameterizes a search.
type Options struct {
	// Strategy names a registered strategy; empty means "exhaustive".
	Strategy string `json:"strategy,omitempty"`
	// Budget caps unique simulations. 0 means the full space size;
	// values above the space size are clamped to it (there is nothing
	// more to evaluate). Negative budgets are rejected.
	Budget int `json:"budget,omitempty"`
	// Seed seeds the stochastic strategies' RNG. Equal seeds reproduce
	// equal runs; the exhaustive strategy ignores it.
	Seed int64 `json:"seed,omitempty"`
	// Objective selects the ranking metric: "" or "gbps" ranks by raw
	// sustained bandwidth, "knee" by the bandwidth–latency-surface knee
	// (the bandwidth delivered at acceptable loaded latency). Under the
	// knee objective the evaluator must populate dse.Point.KneeGBps —
	// Run wraps its evaluator with WithKneeObjective automatically;
	// RunWithHooks callers do it themselves.
	Objective string `json:"objective,omitempty"`
}

// Objective names.
const (
	ObjectiveGBps = "gbps"
	ObjectiveKnee = "knee"
)

// Objectives lists the selectable objective names.
func Objectives() []string { return []string{ObjectiveGBps, ObjectiveKnee} }

// ParseObjective canonicalizes an objective name. The default
// bandwidth objective canonicalizes to the empty string so that legacy
// requests (which never spelled an objective) and explicit "gbps"
// requests fingerprint — and therefore cache — identically.
func ParseObjective(s string) (string, error) {
	switch s {
	case "", ObjectiveGBps:
		return "", nil
	case ObjectiveKnee:
		return ObjectiveKnee, nil
	default:
		return "", fmt.Errorf("search: unknown objective %q (want %v)", s, Objectives())
	}
}

// TraceEntry is one unique evaluation, in the order the strategy
// performed them. Revisits of already-evaluated points are not traced
// (they cost nothing); Result.Revisits counts them in aggregate.
type TraceEntry struct {
	// Step is the evaluation ordinal, starting at 0.
	Step int `json:"step"`
	// Label is the compact configuration label (dse.ConfigLabel).
	Label string `json:"label"`
	// GBps is the achieved bandwidth; 0 for infeasible points.
	GBps float64 `json:"gbps"`
	// Feasible is false when the device rejected the configuration.
	Feasible bool `json:"feasible"`
	// Best marks the evaluations that improved the incumbent best.
	Best bool `json:"best"`
}

// Result is the outcome of one search run.
type Result struct {
	Strategy string `json:"strategy"`
	// Stopped is the canonical partial-result tag (runstate.Canceled or
	// runstate.Deadline) when the search's context ended before the
	// strategy finished; empty for a complete search. A stopped result
	// still carries everything evaluated before the stop — trace,
	// ranking, Pareto front and the incumbent best.
	Stopped string `json:"stopped,omitempty"`
	// Objective is the canonical ranking metric ("" = raw bandwidth,
	// "knee" = surface-knee bandwidth).
	Objective string `json:"objective,omitempty"`
	// Budget is the effective evaluation budget (after defaulting and
	// clamping to the space size).
	Budget int   `json:"budget"`
	Seed   int64 `json:"seed"`
	// SpaceSize is the full grid size the search drew from.
	SpaceSize int `json:"space_size"`
	// Evaluations is the number of unique configurations simulated.
	Evaluations int `json:"evaluations"`
	// Revisits counts deduplicated re-evaluations (free).
	Revisits int `json:"revisits"`
	// Best is the highest-bandwidth feasible point, nil when every
	// evaluated point was infeasible.
	Best     *dse.Point `json:"best,omitempty"`
	BestGBps float64    `json:"best_gbps"`
	// Exploration ranks every unique evaluated point, best first, with
	// the infeasible count — for the exhaustive strategy at full budget
	// this is identical to dse.Explore over the same space.
	Exploration dse.Exploration `json:"exploration"`
	// Pareto is the bandwidth-versus-resources Pareto front over the
	// evaluated points (see ParetoFront).
	Pareto []ParetoPoint `json:"pareto"`
	// Trace is the unique-evaluation history, in execution order.
	Trace []TraceEntry `json:"trace"`
}

// Engine is the budgeted, deduplicating evaluation core every strategy
// drives. Strategies ask it to evaluate lattice points; it memoizes by
// configuration fingerprint, tracks the incumbent best and writes the
// trace. An Engine is single-goroutine; the parallelism story lives a
// layer up (concurrent jobs in the service, not concurrent evaluations
// within one search).
type Engine struct {
	space   dse.Space
	base    core.Config
	op      kernel.Op
	eval    Evaluator
	fp      func(core.Config) string
	score   func(dse.Point) float64
	rng     *rand.Rand
	ctx     context.Context // cancels the search between evaluations
	observe func(dse.Point) // non-nil: sees every unique evaluation

	dims   []int
	size   int
	budget int

	seen     map[string]int // fingerprint -> index into points
	points   []dse.Point    // unique evaluations, in execution order
	trace    []TraceEntry
	revisits int
	stopped  string // runstate tag once the context ends the search
	bestIdx  int
	bestGBps float64
}

// Space returns the grid under search.
func (e *Engine) Space() dse.Space { return e.space }

// Size returns the full grid size.
func (e *Engine) Size() int { return e.size }

// Budget returns the unique-evaluation budget.
func (e *Engine) Budget() int { return e.budget }

// Exhausted reports whether the budget is spent.
func (e *Engine) Exhausted() bool { return len(e.points) >= e.budget }

// Stopped reports whether the search's context has ended it, latching
// the canonical stop tag (runstate.Canceled or runstate.Deadline) for
// the Result. The Engine is single-goroutine, so the lazy latch is
// safe.
func (e *Engine) Stopped() bool {
	if e.stopped == "" {
		e.stopped = runstate.FromContext(e.ctx)
	}
	return e.stopped != ""
}

// Done reports whether searching further is pointless: the budget is
// spent, every grid point has been evaluated, or the context ended.
func (e *Engine) Done() bool { return e.Exhausted() || len(e.points) >= e.size || e.Stopped() }

// Rand returns the seeded RNG stochastic strategies must draw from —
// and nothing else, or reproducibility breaks.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// RandomIndex draws a uniform lattice point.
func (e *Engine) RandomIndex() []int {
	idx := make([]int, len(e.dims))
	for k, n := range e.dims {
		idx[k] = e.rng.Intn(n)
	}
	return idx
}

// Score is the optimization objective: the selected metric (bandwidth
// by default, the surface knee under Options.Objective "knee") for
// feasible points, negative infinity for infeasible points so they
// lose every comparison but remain accept-anything starting states.
func (e *Engine) Score(p dse.Point) float64 {
	if p.Err != nil {
		return negInf
	}
	return e.score(p)
}

// BestScore returns the incumbent best bandwidth, 0 before any
// feasible evaluation.
func (e *Engine) BestScore() float64 { return e.bestGBps }

// Best returns the incumbent best point; ok is false while nothing
// feasible has been evaluated.
func (e *Engine) Best() (dse.Point, bool) {
	if e.bestIdx < 0 {
		return dse.Point{}, false
	}
	return e.points[e.bestIdx], true
}

// EvalIndex evaluates the configuration at lattice point idx. Already
// evaluated configurations return their memoized point without
// touching the budget. ok is false — and the strategy should stop —
// when the point is new but the budget is exhausted.
func (e *Engine) EvalIndex(idx []int) (p dse.Point, ok bool) {
	return e.evalConfig(e.space.At(e.base, idx))
}

// EvalFlat evaluates the i-th configuration in flat grid order.
func (e *Engine) EvalFlat(i int) (p dse.Point, ok bool) {
	return e.evalConfig(e.space.At(e.base, e.space.Unflatten(i)))
}

func (e *Engine) evalConfig(cfg core.Config) (dse.Point, bool) {
	key := e.fp(cfg)
	if i, seen := e.seen[key]; seen {
		e.revisits++
		return e.points[i], true
	}
	if e.Exhausted() {
		return dse.Point{}, false
	}
	// The context is checked only before simulating something new:
	// memoized revisits above stay free even after a cancel, and an
	// evaluation in flight finishes — one evaluation unit is the
	// cancellation granularity.
	if st := runstate.FromContext(e.ctx); st != "" {
		e.stopped = st
		return dse.Point{}, false
	}
	p := e.eval(cfg, dse.ConfigLabel(cfg), key)
	// An evaluation the context interrupted mid-flight is not an
	// infeasible design point: stop the search without recording it,
	// billing the budget, or polluting the trace.
	if st := runstate.FromErr(p.Err); st != "" {
		e.stopped = st
		return dse.Point{}, false
	}
	i := len(e.points)
	e.seen[key] = i
	e.points = append(e.points, p)
	improved := false
	if score := e.Score(p); p.Err == nil && (e.bestIdx < 0 || score > e.bestGBps) {
		e.bestIdx, e.bestGBps, improved = i, score, true
	}
	e.trace = append(e.trace, TraceEntry{
		Step:     i,
		Label:    p.Label,
		GBps:     p.GBps(e.op),
		Feasible: p.Err == nil,
		Best:     improved,
	})
	if e.observe != nil {
		e.observe(p)
	}
	return p, true
}

// Run searches space over base for the best op score on dev,
// evaluating through core.Run exactly like dse.Explore does. The
// search is sequential on one device instance (devices carry simulator
// state and are not goroutine-safe). Under the knee objective every
// feasible evaluation additionally measures its loaded-latency surface
// (WithKneeObjective).
func Run(dev device.Device, base core.Config, space dse.Space, op kernel.Op, opts Options) (*Result, error) {
	return RunContext(context.Background(), dev, base, space, op, opts)
}

// RunContext is Run under a context: the search stops between
// evaluations when ctx ends and returns the partial Result tagged via
// Result.Stopped — best-so-far, ranking and trace intact.
func RunContext(ctx context.Context, dev device.Device, base core.Config, space dse.Space, op kernel.Op, opts Options) (*Result, error) {
	target := dev.Info().ID
	eval := func(cfg core.Config, label, _ string) dse.Point {
		// Thread the context into the run itself so a cancel lands within
		// one kernel repetition, not one whole evaluation; the engine
		// discards the interrupted point instead of recording it.
		res, err := core.RunContext(ctx, dev, cfg)
		return dse.Point{Label: label, Config: cfg, Result: res, Err: err}
	}
	obj, err := ParseObjective(opts.Objective)
	if err != nil {
		return nil, err
	}
	if obj == ObjectiveKnee {
		eval = WithKneeObjective(dev, eval)
	}
	fp := func(cfg core.Config) string { return cfg.Fingerprint(target) }
	return RunWithHooks(eval, fp, base, space, op, opts, Hooks{Context: ctx})
}

// WithKneeObjective wraps an evaluator so every feasible point also
// measures its bandwidth–latency surface on dev and records the
// bandwidth it delivers at acceptable loaded latency
// (dse.Point.KneeGBps): the point's own achieved bandwidth, clipped to
// the surface knee of its traffic shape. The clipping is what makes
// the metric discriminate — a configuration whose raw throughput
// exceeds what the memory system sustains at acceptable latency is
// scored at the knee ceiling, while configurations below it rank by
// their own bandwidth. A surface failure makes the point infeasible.
func WithKneeObjective(dev device.Device, eval Evaluator) Evaluator {
	// The ceiling depends only on the probe shape (pattern, read/write
	// mix — see core.Config.SurfaceProbe), which today's grid axes never
	// vary, so memoizing by probe configuration collapses a whole search
	// to one surface measurement while staying correct if a pattern axis
	// ever appears.
	ceilings := make(map[string]float64)
	return func(cfg core.Config, label, fp string) dse.Point {
		p := eval(cfg, label, fp)
		if p.Err != nil {
			return p
		}
		probe := cfg.SurfaceProbe()
		key, err := json.Marshal(probe)
		if err != nil {
			return dse.Point{Label: label, Config: cfg, Err: err}
		}
		ceiling, ok := ceilings[string(key)]
		if !ok {
			ceiling, err = core.KneeGBps(dev, cfg)
			if err != nil {
				return dse.Point{Label: label, Config: cfg, Err: err}
			}
			ceilings[string(key)] = ceiling
		}
		p.KneeGBps = ceiling
		if g := p.GBps(cfg.Ops[0]); g < ceiling {
			p.KneeGBps = g
		}
		return p
	}
}

// Hooks carries the cross-cutting execution concerns of one search —
// everything that shapes how the search runs without changing what it
// computes. The zero value runs to completion unobserved.
type Hooks struct {
	// Context ends the search between evaluations; nil means Background.
	// A stopped search returns its partial Result with Stopped set.
	Context context.Context
	// Observe — when non-nil — is called after every unique evaluation,
	// in execution order, from the searching goroutine.
	Observe func(dse.Point)
}

// RunWithHooks runs a search with the evaluation and dedup key
// injected — the hook the service layer uses to put its LRU result
// cache in front of the simulator — and a context and an evaluation
// observer attached (see Hooks). fingerprint must map
// canonically-equal configurations to equal keys (core.Config.Fingerprint
// bound to a target id does).
//
// The base configuration's Ops are forced to the single target op,
// mirroring dse.Explore, so exhaustive results are comparable
// point-for-point.
func RunWithHooks(eval Evaluator, fingerprint func(core.Config) string, base core.Config, space dse.Space, op kernel.Op, opts Options, h Hooks) (*Result, error) {
	strat, err := Lookup(opts.Strategy)
	if err != nil {
		return nil, err
	}
	obj, err := ParseObjective(opts.Objective)
	if err != nil {
		return nil, err
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("search: budget %d must be >= 0 (0 means the full space)", opts.Budget)
	}
	size := space.Size()
	budget := opts.Budget
	if budget == 0 || budget > size {
		budget = size
	}
	base.Ops = []kernel.Op{op}

	score := func(p dse.Point) float64 { return p.GBps(op) }
	if obj == ObjectiveKnee {
		score = func(p dse.Point) float64 { return p.KneeGBps }
	}
	e := &Engine{
		space:   space,
		base:    base,
		op:      op,
		eval:    eval,
		fp:      fingerprint,
		score:   score,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		ctx:     h.Context,
		observe: h.Observe,
		dims:    space.Dims(),
		size:    size,
		budget:  budget,
		seen:    make(map[string]int, budget),
		bestIdx: -1,
	}
	strat.Search(e)

	res := &Result{
		Strategy:    strat.Name(),
		Stopped:     e.stopped,
		Objective:   obj,
		Budget:      budget,
		Seed:        opts.Seed,
		SpaceSize:   size,
		Evaluations: len(e.points),
		Revisits:    e.revisits,
		Exploration: dse.RankBy(e.points, score),
		Pareto:      ParetoFront(e.points, op),
		Trace:       e.trace,
	}
	if best, ok := e.Best(); ok {
		res.Best, res.BestGBps = &best, best.GBps(op)
	}
	return res, nil
}
