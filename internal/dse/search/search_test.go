package search_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
)

func testBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.ArrayBytes = 1 << 16
	cfg.NTimes = 2
	return cfg
}

func testSpace() dse.Space {
	return dse.Space{
		VecWidths: []int{1, 2, 4, 8},
		Loops:     []kernel.LoopMode{kernel.NDRange, kernel.FlatLoop},
		Types:     []kernel.DataType{kernel.Int32, kernel.Float64},
	}
}

func mustTarget(t *testing.T, id string) device.Device {
	t.Helper()
	dev, err := targets.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestExhaustiveMatchesExplore is the acceptance criterion: the
// exhaustive strategy at full budget returns the same best point — and
// the same full ranking, byte for byte — as dse.Explore.
func TestExhaustiveMatchesExplore(t *testing.T) {
	for _, target := range []string{"cpu", "aocl"} {
		t.Run(target, func(t *testing.T) {
			base, space, op := testBase(), testSpace(), kernel.Triad
			want := dse.Explore(mustTarget(t, target), base, space, op)

			res, err := search.Run(mustTarget(t, target), base, space, op, search.Options{Strategy: "exhaustive"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != space.Size() || res.Budget != space.Size() {
				t.Errorf("evaluations = %d, budget = %d, want %d", res.Evaluations, res.Budget, space.Size())
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(res.Exploration)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("exhaustive exploration differs from dse.Explore:\n got %s\nwant %s", gotJSON, wantJSON)
			}
			wantBest, ok := want.Best()
			if !ok || res.Best == nil {
				t.Fatalf("no best point: explore ok=%v search best=%v", ok, res.Best)
			}
			if res.Best.Label != wantBest.Label || res.BestGBps != wantBest.GBps(op) {
				t.Errorf("best = %s %.3f, want %s %.3f", res.Best.Label, res.BestGBps, wantBest.Label, wantBest.GBps(op))
			}
		})
	}
}

// TestSeededRunsReproduce: equal (strategy, budget, seed) triples give
// bit-identical results, including the evaluation trace.
func TestSeededRunsReproduce(t *testing.T) {
	base, space, op := testBase(), testSpace(), kernel.Copy
	for _, strat := range []string{"random", "hillclimb", "anneal"} {
		t.Run(strat, func(t *testing.T) {
			opts := search.Options{Strategy: strat, Budget: 8, Seed: 42}
			first, err := search.Run(mustTarget(t, "cpu"), base, space, op, opts)
			if err != nil {
				t.Fatal(err)
			}
			second, err := search.Run(mustTarget(t, "cpu"), base, space, op, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(first)
			b, _ := json.Marshal(second)
			if string(a) != string(b) {
				t.Errorf("seeded %s runs differ:\n%s\n%s", strat, a, b)
			}
			if first.Evaluations == 0 || first.Evaluations > 8 {
				t.Errorf("evaluations = %d, want 1..8", first.Evaluations)
			}
			if len(first.Trace) != first.Evaluations {
				t.Errorf("trace has %d entries, want %d", len(first.Trace), first.Evaluations)
			}
		})
	}
}

// syntheticEval fabricates results from a score table without any
// device, counting calls per label to prove fingerprint dedup.
func syntheticEval(op kernel.Op, gbps func(cfg core.Config) float64, calls map[string]int) search.Evaluator {
	return func(cfg core.Config, label, _ string) dse.Point {
		calls[label]++
		res := &core.Result{
			Config:  cfg,
			Kernels: []core.KernelResult{{Op: op, GBps: gbps(cfg)}},
		}
		return dse.Point{Label: label, Config: cfg, Result: res}
	}
}

func syntheticFP(cfg core.Config) string { return cfg.Fingerprint("synthetic") }

// TestDedupNeverReevaluates: stochastic strategies revisit points, but
// the evaluator runs at most once per configuration and revisits do
// not bill the budget.
func TestDedupNeverReevaluates(t *testing.T) {
	base, op := testBase(), kernel.Copy
	space := dse.Space{VecWidths: []int{1, 2, 4}, Unrolls: []int{1, 2}}
	for _, strat := range []string{"random", "hillclimb", "anneal"} {
		calls := map[string]int{}
		eval := syntheticEval(op, func(cfg core.Config) float64 { return float64(cfg.VecWidth) }, calls)
		res, err := search.RunWithHooks(eval, syntheticFP, base, space, op,
			search.Options{Strategy: strat, Budget: space.Size(), Seed: 7}, search.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for label, n := range calls {
			total++
			if n != 1 {
				t.Errorf("%s evaluated %s %d times, want 1", strat, label, n)
			}
		}
		if total != res.Evaluations {
			t.Errorf("%s: %d evaluator calls vs %d reported evaluations", strat, total, res.Evaluations)
		}
	}
}

// TestBudgetRespected: unique evaluations never exceed the budget, and
// a zero budget defaults to the full space.
func TestBudgetRespected(t *testing.T) {
	base, op := testBase(), kernel.Copy
	space := dse.Space{VecWidths: []int{1, 2, 4, 8, 16}, Unrolls: []int{1, 2, 4}}
	for _, strat := range search.Strategies() {
		for _, budget := range []int{1, 4, 0, space.Size() + 100} {
			calls := map[string]int{}
			eval := syntheticEval(op, func(cfg core.Config) float64 { return float64(cfg.VecWidth * cfg.Attrs.Unroll) }, calls)
			res, err := search.RunWithHooks(eval, syntheticFP, base, space, op,
				search.Options{Strategy: strat, Budget: budget, Seed: 3}, search.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			want := budget
			if budget == 0 || budget > space.Size() {
				want = space.Size()
			}
			if res.Budget != want {
				t.Errorf("%s budget %d: effective %d, want %d", strat, budget, res.Budget, want)
			}
			if res.Evaluations > want {
				t.Errorf("%s budget %d: %d evaluations", strat, want, res.Evaluations)
			}
		}
	}
}

// TestStrategiesFindOptimum: on a smooth objective with a full-space
// budget every strategy lands on the global optimum.
func TestStrategiesFindOptimum(t *testing.T) {
	base, op := testBase(), kernel.Copy
	space := dse.Space{VecWidths: []int{1, 2, 4, 8}, Unrolls: []int{1, 2, 4}}
	for _, strat := range search.Strategies() {
		eval := syntheticEval(op, func(cfg core.Config) float64 {
			return float64(cfg.VecWidth) + 0.5*float64(cfg.Attrs.Unroll)
		}, map[string]int{})
		res, err := search.RunWithHooks(eval, syntheticFP, base, space, op,
			search.Options{Strategy: strat, Budget: space.Size(), Seed: 11}, search.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil || res.Best.Config.VecWidth != 8 || res.Best.Config.Attrs.Unroll != 4 {
			t.Errorf("%s best = %+v, want v8 u4", strat, res.Best)
		}
		if res.BestGBps != 10 {
			t.Errorf("%s best gbps = %v, want 10", strat, res.BestGBps)
		}
	}
}

// TestErrors: unknown strategies and negative budgets are rejected
// before anything is evaluated.
func TestErrors(t *testing.T) {
	base, space, op := testBase(), testSpace(), kernel.Copy
	eval := syntheticEval(op, func(core.Config) float64 { return 1 }, map[string]int{})
	if _, err := search.RunWithHooks(eval, syntheticFP, base, space, op, search.Options{Strategy: "gradient-descent"}, search.Hooks{}); err == nil {
		t.Error("unknown strategy must error")
	}
	if _, err := search.RunWithHooks(eval, syntheticFP, base, space, op, search.Options{Budget: -1}, search.Hooks{}); err == nil {
		t.Error("negative budget must error")
	}
}

// TestEmptySpace: a space with no axes evaluates exactly the base
// point under every strategy, with no hangs.
func TestEmptySpace(t *testing.T) {
	base, op := testBase(), kernel.Copy
	// RandomIndex over zero dims returns the empty vector — the single
	// point; every strategy must still terminate.
	for _, strat := range search.Strategies() {
		res, err := search.Run(mustTarget(t, "cpu"), base, dse.Space{}, op, search.Options{Strategy: strat, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations != 1 || res.Best == nil {
			t.Errorf("%s on empty space: %d evaluations, best %v", strat, res.Evaluations, res.Best)
		}
	}
}

// TestAllInfeasible: a search where the device rejects everything
// reports no best point and an empty Pareto front, not a crash.
func TestAllInfeasible(t *testing.T) {
	base, op := testBase(), kernel.Copy
	space := dse.Space{VecWidths: []int{1, 2}}
	eval := func(cfg core.Config, label, _ string) dse.Point {
		return dse.Point{Label: label, Config: cfg, Err: fmt.Errorf("does not fit")}
	}
	for _, strat := range search.Strategies() {
		res, err := search.RunWithHooks(eval, syntheticFP, base, space, op,
			search.Options{Strategy: strat, Budget: 2, Seed: 5}, search.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != nil || res.BestGBps != 0 {
			t.Errorf("%s: best = %+v over all-infeasible space", strat, res.Best)
		}
		if len(res.Pareto) != 0 {
			t.Errorf("%s: pareto = %+v, want empty", strat, res.Pareto)
		}
		if res.Exploration.Infeasible != res.Evaluations {
			t.Errorf("%s: %d infeasible of %d", strat, res.Exploration.Infeasible, res.Evaluations)
		}
	}
}

// TestParetoFront checks dominance filtering on a hand-built set:
// dominated designs drop, trade-offs stay, and the front is sorted by
// bandwidth.
func TestParetoFront(t *testing.T) {
	op := kernel.Copy
	mk := func(label string, gbps float64, logic int) dse.Point {
		return dse.Point{
			Label: label,
			Result: &core.Result{
				Kernels:      []core.KernelResult{{Op: op, GBps: gbps}},
				Resources:    fabric.Resources{Logic: logic},
				HasResources: true,
			},
		}
	}
	pts := []dse.Point{
		mk("fast-big", 30, 100_000),
		mk("slow-small", 10, 10_000),
		mk("dominated", 9, 50_000),  // slower and bigger than slow-small
		mk("mid", 20, 40_000),       // a genuine trade-off
		mk("worse-mid", 19, 40_000), // same size as mid, slower
		{Label: "broken", Err: fmt.Errorf("no fit")},
	}
	front := search.ParetoFront(pts, op)
	var labels []string
	for _, p := range front {
		labels = append(labels, p.Label)
	}
	want := []string{"fast-big", "mid", "slow-small"}
	if fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Errorf("front = %v, want %v", labels, want)
	}
}

// TestParetoNoResources: for targets without resource reports the
// front collapses to the single bandwidth optimum.
func TestParetoNoResources(t *testing.T) {
	op := kernel.Copy
	mk := func(label string, gbps float64) dse.Point {
		return dse.Point{Label: label, Result: &core.Result{Kernels: []core.KernelResult{{Op: op, GBps: gbps}}}}
	}
	front := search.ParetoFront([]dse.Point{mk("a", 5), mk("b", 9), mk("c", 7)}, op)
	if len(front) != 1 || front[0].Label != "b" {
		t.Errorf("front = %+v, want just b", front)
	}
}

// TestFPGASearchProducesTradeoffs: an end-to-end AOCL search yields a
// Pareto front where bandwidth strictly decreases as resources shrink.
func TestFPGASearchProducesTradeoffs(t *testing.T) {
	base, op := testBase(), kernel.Triad
	space := dse.Space{
		VecWidths: []int{1, 2, 4, 8, 16},
		Unrolls:   []int{1, 2, 4},
	}
	res, err := search.Run(mustTarget(t, "aocl"), base, space, op, search.Options{Strategy: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pareto) < 2 {
		t.Fatalf("expected a multi-point front on aocl, got %+v", res.Pareto)
	}
	for i := 1; i < len(res.Pareto); i++ {
		prev, cur := res.Pareto[i-1], res.Pareto[i]
		if cur.GBps > prev.GBps {
			t.Errorf("front not sorted: %v then %v", prev.GBps, cur.GBps)
		}
		if !cur.HasResources {
			t.Errorf("aocl front point %s missing resources", cur.Label)
		}
	}
	if res.Best == nil || res.Pareto[0].GBps != res.BestGBps {
		t.Errorf("front[0] = %+v must agree with best %v", res.Pareto[0], res.BestGBps)
	}
}

// TestObjectiveGBpsParity is the knee-objective acceptance criterion's
// other half: spelling the default objective explicitly ("gbps") must
// reproduce the default search byte for byte — same ranking, same best,
// same trace, same fingerprint-relevant canonical form.
func TestObjectiveGBpsParity(t *testing.T) {
	base, space, op := testBase(), testSpace(), kernel.Triad
	def, err := search.Run(mustTarget(t, "aocl"), base, space, op,
		search.Options{Strategy: "hillclimb", Budget: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := search.Run(mustTarget(t, "aocl"), base, space, op,
		search.Options{Strategy: "hillclimb", Budget: 8, Seed: 3, Objective: search.ObjectiveGBps})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("explicit gbps objective diverges from the default:\n%s\nvs\n%s", a, b)
	}
	if def.Objective != "" {
		t.Errorf("default objective canonical form = %q, want empty", def.Objective)
	}
}

func TestParseObjective(t *testing.T) {
	for _, s := range []string{"", "gbps"} {
		got, err := search.ParseObjective(s)
		if err != nil || got != "" {
			t.Errorf("ParseObjective(%q) = %q, %v", s, got, err)
		}
	}
	if got, err := search.ParseObjective("knee"); err != nil || got != search.ObjectiveKnee {
		t.Errorf("ParseObjective(knee) = %q, %v", got, err)
	}
	if _, err := search.ParseObjective("latency"); err == nil {
		t.Error("unknown objective must error")
	}
}

// TestKneeObjective checks the alternative ranking metric end to end on
// a small exhaustive search: every feasible point carries its
// latency-bounded bandwidth (raw bandwidth clipped to its surface
// knee), the ranking is ordered by it, and the run is deterministic.
func TestKneeObjective(t *testing.T) {
	base, op := testBase(), kernel.Triad
	space := dse.Space{VecWidths: []int{1, 4, 16}}
	run := func() *search.Result {
		res, err := search.Run(mustTarget(t, "gpu"), base, space, op,
			search.Options{Strategy: "exhaustive", Objective: "knee"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Objective != search.ObjectiveKnee {
		t.Errorf("objective = %q", res.Objective)
	}
	if res.Best == nil {
		t.Fatal("no feasible point")
	}
	if res.Best.KneeGBps <= 0 {
		t.Errorf("best point has no knee bandwidth: %+v", res.Best)
	}
	ranked := res.Exploration.Ranked
	if len(ranked) != space.Size() {
		t.Fatalf("ranked %d of %d points", len(ranked), space.Size())
	}
	for i := range ranked {
		if ranked[i].KneeGBps <= 0 {
			t.Errorf("ranked point %d (%s) missing knee bandwidth", i, ranked[i].Label)
		}
		// The score is the point's own bandwidth clipped to its knee
		// ceiling, so it can never exceed the raw bandwidth.
		if ranked[i].KneeGBps > ranked[i].GBps(op)+1e-9 {
			t.Errorf("point %s knee score %.3f above its raw bandwidth %.3f",
				ranked[i].Label, ranked[i].KneeGBps, ranked[i].GBps(op))
		}
		if i > 0 && ranked[i].KneeGBps > ranked[i-1].KneeGBps {
			t.Errorf("ranking not ordered by knee: %.2f above %.2f",
				ranked[i].KneeGBps, ranked[i-1].KneeGBps)
		}
	}
	if ranked[0].KneeGBps != res.Best.KneeGBps {
		t.Errorf("best (%.2f) is not the top-ranked knee (%.2f)",
			res.Best.KneeGBps, ranked[0].KneeGBps)
	}
	// Seeded determinism holds for the knee objective too.
	again := run()
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Error("knee-objective search is not deterministic")
	}
}

// TestKneeAgreesWithGBpsBelowTheCeiling: when every point's raw
// bandwidth sits below its knee ceiling (small launch-bound arrays on
// the gpu, far under the DRAM knee), the clipped score equals the raw
// bandwidth, so the knee ranking must reproduce the gbps ranking
// point for point — the parity half of the acceptance criterion.
func TestKneeAgreesWithGBpsBelowTheCeiling(t *testing.T) {
	base, op := testBase(), kernel.Copy
	space := dse.Space{VecWidths: []int{1, 2, 4}, Types: []kernel.DataType{kernel.Int32, kernel.Float64}}
	gbps, err := search.Run(mustTarget(t, "gpu"), base, space, op,
		search.Options{Strategy: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	knee, err := search.Run(mustTarget(t, "gpu"), base, space, op,
		search.Options{Strategy: "exhaustive", Objective: "knee"})
	if err != nil {
		t.Fatal(err)
	}
	if gbps.Best == nil || knee.Best == nil {
		t.Fatal("missing best points")
	}
	for i, p := range knee.Exploration.Ranked {
		if p.KneeGBps != p.GBps(op) {
			t.Fatalf("point %s clipped (%.3f < %.3f) — pick a smaller base for this test",
				p.Label, p.KneeGBps, p.GBps(op))
		}
		if want := gbps.Exploration.Ranked[i].Label; p.Label != want {
			t.Errorf("rank %d: knee ranking has %q, gbps ranking has %q", i, p.Label, want)
		}
	}
	if gbps.Best.Label != knee.Best.Label {
		t.Errorf("knee winner %q differs from bandwidth winner %q below the ceiling",
			knee.Best.Label, gbps.Best.Label)
	}
}

func TestBadObjectiveRejected(t *testing.T) {
	_, err := search.Run(mustTarget(t, "cpu"), testBase(), testSpace(), kernel.Copy,
		search.Options{Objective: "latency"})
	if err == nil {
		t.Error("unknown objective must be rejected")
	}
}
