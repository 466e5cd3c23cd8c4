// Package dse implements design-space exploration over the MP-STREAM
// parameter space. A Space describes every variation of the tuning
// knobs: its one-axis slices are the figures of the paper, its full
// grid is what the exhaustive explorer searches for a device's best
// configuration — the manual and automated exploration routes the
// paper motivates. Array size is not a tuning knob; SweepSizes varies
// it on its own.
package dse

import (
	"fmt"
	"sort"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/kernel"
)

// Point is one evaluated configuration.
type Point struct {
	Label  string
	Config core.Config
	Result *core.Result
	// KneeGBps is the bandwidth this configuration delivers at
	// acceptable loaded latency: its achieved bandwidth clipped to the
	// bandwidth–latency-surface knee of its own traffic shape. It is
	// populated only when a search runs under the "knee" objective
	// (search.WithKneeObjective) and is 0 otherwise.
	KneeGBps float64
	// Err records infeasible configurations (e.g. FPGA designs that do
	// not fit); Result is nil for them.
	Err error
}

// Evaluated reports whether the point was actually evaluated: a
// canceled parallel evaluation (EvalParallelContext) leaves unclaimed
// grid slots as zero Points, and partial-result consumers filter on
// this before ranking.
func (p Point) Evaluated() bool {
	return p.Label != "" || p.Result != nil || p.Err != nil
}

// EvaluatedPoints filters pts down to the points actually evaluated,
// preserving order — the partial-sweep view a canceled evaluation
// leaves behind.
func EvaluatedPoints(pts []Point) []Point {
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.Evaluated() {
			out = append(out, p)
		}
	}
	return out
}

// GBps returns the bandwidth for op, or 0 when unavailable.
func (p Point) GBps(op kernel.Op) float64 {
	if p.Result == nil {
		return 0
	}
	if kr := p.Result.Kernel(op); kr != nil {
		return kr.GBps
	}
	return 0
}

// run evaluates one labeled configuration.
func run(dev device.Device, cfg core.Config, label string) Point {
	res, err := core.Run(dev, cfg)
	return Point{Label: label, Config: cfg, Result: res, Err: err}
}

func sizeLabel(s int64) string { return fmt.Sprintf("%dB", s) }

// SweepSizes varies the array size (Figure 1(a), Figure 2).
func SweepSizes(dev device.Device, base core.Config, sizes []int64) []Point {
	pts := make([]Point, 0, len(sizes))
	for _, s := range sizes {
		cfg := base
		cfg.ArrayBytes = s
		pts = append(pts, run(dev, cfg, sizeLabel(s)))
	}
	return pts
}

// Exploration is the outcome of an exhaustive search.
type Exploration struct {
	// Ranked holds feasible points, best bandwidth first.
	Ranked []Point `json:"ranked"`
	// Infeasible counts configurations the device rejected (invalid
	// kernels, designs that do not fit).
	Infeasible int `json:"infeasible"`
}

// Best returns the winning point; ok is false when nothing was feasible.
func (e Exploration) Best() (Point, bool) {
	if len(e.Ranked) == 0 {
		return Point{}, false
	}
	return e.Ranked[0], true
}

// Explore evaluates every grid point for op and ranks the feasible ones.
func Explore(dev device.Device, base core.Config, space Space, op kernel.Op) Exploration {
	base.Ops = []kernel.Op{op}
	cfgs := space.Configs(base)
	pts := make([]Point, 0, len(cfgs))
	for _, cfg := range cfgs {
		pts = append(pts, run(dev, cfg, ConfigLabel(cfg)))
	}
	return Rank(pts, op)
}

// Rank filters evaluated points into an Exploration: infeasible points
// are counted, feasible ones ordered best bandwidth first. The sort is
// stable, so equal-bandwidth points keep their grid order and sequential
// and parallel exploration rank identically.
func Rank(pts []Point, op kernel.Op) Exploration {
	return RankBy(pts, func(p Point) float64 { return p.GBps(op) })
}

// RankBy is Rank with the ranking metric injected — the hook the search
// layer uses for alternative objectives (e.g. the surface knee).
func RankBy(pts []Point, score func(Point) float64) Exploration {
	// Ranked starts non-nil so an all-infeasible exploration marshals as
	// an empty JSON array, not null.
	out := Exploration{Ranked: []Point{}}
	for _, p := range pts {
		if p.Err != nil {
			out.Infeasible++
			continue
		}
		out.Ranked = append(out.Ranked, p)
	}
	sort.SliceStable(out.Ranked, func(i, j int) bool {
		return score(out.Ranked[i]) > score(out.Ranked[j])
	})
	return out
}

// ConfigLabel renders the compact label Explore gives a grid point.
func ConfigLabel(c core.Config) string {
	loop := "auto"
	if !c.OptimalLoop {
		loop = c.Loop.String()
	}
	label := fmt.Sprintf("%s-v%d-%s", c.Type, c.VecWidth, loop)
	if c.Attrs.Unroll > 1 {
		label += fmt.Sprintf("-u%d", c.Attrs.Unroll)
	}
	if c.Attrs.NumSIMDWorkItems > 1 {
		label += fmt.Sprintf("-simd%d", c.Attrs.NumSIMDWorkItems)
	}
	if c.Attrs.NumComputeUnits > 1 {
		label += fmt.Sprintf("-cu%d", c.Attrs.NumComputeUnits)
	}
	return label
}
