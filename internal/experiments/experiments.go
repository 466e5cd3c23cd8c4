// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment
// returns its measured series alongside the digitized paper series so the
// sweep driver, the benchmark harness and EXPERIMENTS.md all draw from
// the same source.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/paperdata"
	"mpstream/internal/report"
	"mpstream/internal/runstate"
	"mpstream/internal/sim/mem"
)

// Series is one measured line with its paper counterpart (Paper may be
// shorter than X or nil when the figure gives no numbers).
type Series struct {
	Name  string    `json:"name"`
	X     []float64 `json:"x"`
	GBps  []float64 `json:"gbps"`
	Paper []float64 `json:"paper,omitempty"`
}

// WorstFactor returns the largest multiplicative deviation from the paper
// over the aligned points, and 1 when no paper data exists.
func (s Series) WorstFactor() float64 {
	worst := 1.0
	n := len(s.Paper)
	if len(s.GBps) < n {
		n = len(s.GBps)
	}
	for i := 0; i < n; i++ {
		got, want := s.GBps[i], s.Paper[i]
		if got <= 0 || want <= 0 {
			continue
		}
		f := got / want
		if f < 1 {
			f = 1 / f
		}
		if f > worst {
			worst = f
		}
	}
	return worst
}

// Experiment is one reproduced figure or table.
type Experiment struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label,omitempty"`
	Series []Series `json:"series,omitempty"`
	// Extra holds a pre-built table for experiments that are tables
	// rather than series (resources, target info).
	Extra *report.Table `json:"extra,omitempty"`
	Notes []string      `json:"notes,omitempty"`
}

// verifyLimit is the largest array the experiments verify; larger sweeps
// run timing-only (results up to this size are verified). Verification
// no longer allocates the arrays (cl buffers hold one element), but the
// limit sets Config.Verify and so the recorded result fingerprints.
const verifyLimit = 64 << 20

// stopNote is the annotation a partially collected experiment carries
// when its context ended mid-run.
func stopNote(ctx context.Context) string {
	return runstate.FromContext(ctx) + " — partial results"
}

// stopped reports whether ctx ended the experiment early, annotating e
// with the canonical stop note when it did. Every experiment checks it
// between measurement units (devices, sizes, routes) and returns the
// partial experiment — not an error — so a Ctrl-C'd mpsweep still
// renders what was collected.
func stopped(ctx context.Context, e *Experiment) bool {
	if runstate.FromContext(ctx) == "" {
		return false
	}
	annotate(ctx, e)
	return true
}

// annotate appends the canonical stop note exactly once.
func annotate(ctx context.Context, e *Experiment) {
	note := stopNote(ctx)
	for _, n := range e.Notes {
		if n == note {
			return
		}
	}
	e.Notes = append(e.Notes, note)
}

// annotated wraps a runner so a stop that lands during an experiment's
// final measurement unit — after the last per-unit stopped() check —
// still tags the returned experiment. Without this, a truncated last
// series would be indistinguishable from a complete run in JSON output.
func annotated(r Runner) Runner {
	return func(ctx context.Context) (*Experiment, error) {
		e, err := r(ctx)
		if err != nil || e == nil || runstate.FromContext(ctx) == "" {
			return e, err
		}
		annotate(ctx, e)
		return e, nil
	}
}

func baseConfig(arrayBytes int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = arrayBytes
	cfg.NTimes = 2
	cfg.Verify = arrayBytes <= verifyLimit
	return cfg
}

func sizesToMB(sizes []int64) []float64 {
	x := make([]float64, len(sizes))
	for i, s := range sizes {
		x[i] = float64(s) / (1 << 20)
	}
	return x
}

func pointsToGBps(pts []dse.Point, op kernel.Op) ([]float64, error) {
	out := make([]float64, len(pts))
	for i, p := range pts {
		if p.Err != nil {
			return nil, fmt.Errorf("%s: %w", p.Label, p.Err)
		}
		out[i] = p.GBps(op)
	}
	return out, nil
}

// sweepSizesSeries measures one target's copy bandwidth across sizes,
// returning the prefix collected so far when ctx ends mid-sweep.
func sweepSizesSeries(ctx context.Context, dev device.Device, sizes []int64, pattern mem.Pattern) ([]float64, error) {
	var out []float64
	for _, s := range sizes {
		if ctx.Err() != nil {
			return out, nil
		}
		cfg := baseConfig(s)
		cfg.Pattern = pattern
		pts := dse.SweepSizes(dev, cfg, []int64{s})
		g, err := pointsToGBps(pts, kernel.Copy)
		if err != nil {
			return nil, err
		}
		out = append(out, g[0])
	}
	return out, nil
}

// Fig1a reproduces Figure 1(a): copy bandwidth vs array size on all four
// targets (contiguous, vec 1, optimal loop management).
func Fig1a(ctx context.Context) (*Experiment, error) {
	sizes := paperdata.Fig1Sizes()
	e := &Experiment{
		ID:     "fig1a",
		Title:  "Figure 1(a): copy bandwidth vs array size (GB/s)",
		XLabel: "array size (MB)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		g, err := sweepSizesSeries(ctx, dev, sizes, mem.ContiguousPattern())
		if err != nil {
			return nil, fmt.Errorf("fig1a %s: %w", id, err)
		}
		e.Series = append(e.Series, Series{Name: id, X: sizesToMB(sizes), GBps: g, Paper: paperdata.Fig1a[id]})
	}
	return e, nil
}

// Fig1b reproduces Figure 1(b): copy bandwidth vs vector width at 4 MB.
func Fig1b(ctx context.Context) (*Experiment, error) {
	widths := paperdata.VecWidths()
	x := make([]float64, len(widths))
	for i, w := range widths {
		x[i] = float64(w)
	}
	e := &Experiment{
		ID:     "fig1b",
		Title:  "Figure 1(b): copy bandwidth vs vector width at 4 MB (GB/s)",
		XLabel: "vector width (words)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		pts := dse.SweepVecWidths(dev, baseConfig(4<<20), widths)
		g, err := pointsToGBps(pts, kernel.Copy)
		if err != nil {
			return nil, fmt.Errorf("fig1b %s: %w", id, err)
		}
		e.Series = append(e.Series, Series{Name: id, X: x, GBps: g, Paper: paperdata.Fig1b[id]})
	}
	return e, nil
}

// Fig2 reproduces Figure 2: contiguous vs column-major strided copy over
// sizes up to 1 GB (64 MB for the FPGA targets, as in the figure).
func Fig2(ctx context.Context) (*Experiment, error) {
	all := paperdata.Fig2Sizes()
	e := &Experiment{
		ID:     "fig2",
		Title:  "Figure 2: copy bandwidth, contiguous vs strided (GB/s)",
		XLabel: "array size (MB)",
		Notes: []string{
			"strided = row-major 2D array walked column-major; the stride grows with the array",
		},
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		sizes := all
		if dev.Info().Kind == device.FPGA {
			sizes = all[:9] // the figure's FPGA series stop at 64 MB
		}
		for _, pat := range []struct {
			suffix  string
			pattern mem.Pattern
			paper   []float64
		}{
			{"contig", mem.ContiguousPattern(), paperdata.Fig2Contig[id]},
			{"strided", mem.ColMajorPattern(), paperdata.Fig2Strided[id]},
		} {
			g, err := sweepSizesSeries(ctx, dev, sizes, pat.pattern)
			if err != nil {
				return nil, fmt.Errorf("fig2 %s-%s: %w", id, pat.suffix, err)
			}
			e.Series = append(e.Series, Series{
				Name: id + "-" + pat.suffix, X: sizesToMB(sizes), GBps: g, Paper: pat.paper,
			})
		}
	}
	return e, nil
}

// Fig3 reproduces Figure 3: loop management on all targets at 4 MB. The
// paper's bars are unlabeled; Paper data is nil and the orderings are
// recorded in paperdata.Fig3Order.
func Fig3(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:     "fig3",
		Title:  "Figure 3: loop management, 4 MB copy (GB/s; paper reports KB/s bars)",
		XLabel: "loop mode (1=ndrange 2=flat 3=nested)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		pts := dse.SweepLoopModes(dev, baseConfig(4<<20))
		g, err := pointsToGBps(pts, kernel.Copy)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", id, err)
		}
		e.Series = append(e.Series, Series{Name: id, X: []float64{1, 2, 3}, GBps: g})
	}
	return e, nil
}

// Fig4a reproduces Figure 4(a): all four STREAM kernels on all targets at
// 4 MB.
func Fig4a(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:     "fig4a",
		Title:  "Figure 4(a): all four kernels, 4 MB (GB/s; paper reports KB/s bars)",
		XLabel: "kernel (1=copy 2=scale 3=add 4=triad)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		cfg := baseConfig(4 << 20)
		cfg.Ops = kernel.Ops()
		res, err := core.Run(dev, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig4a %s: %w", id, err)
		}
		var g []float64
		for _, kr := range res.Kernels {
			g = append(g, kr.GBps)
		}
		e.Series = append(e.Series, Series{Name: id, X: []float64{1, 2, 3, 4}, GBps: g})
	}
	return e, nil
}

// Fig4b reproduces Figure 4(b): the three AOCL optimization routes.
func Fig4b(ctx context.Context) (*Experiment, error) {
	dev, err := targets.ByID("aocl")
	if err != nil {
		return nil, err
	}
	ns := paperdata.Fig4bN()
	x := make([]float64, len(ns))
	for i, n := range ns {
		x[i] = float64(n)
	}
	base := baseConfig(4 << 20)
	e := &Experiment{
		ID:     "fig4b",
		Title:  "Figure 4(b): AOCL optimization routes at 4 MB (GB/s)",
		XLabel: "N (vector width / SIMD work-items / compute units)",
		Notes:  []string{"paper's SIMD/CU values are read off the log-scale plot (approximate)"},
	}

	vecCfg := base
	vecCfg.OptimalLoop = false
	vecCfg.Loop = kernel.FlatLoop
	for _, route := range []struct {
		name  string
		sweep func() []dse.Point
	}{
		{"vector", func() []dse.Point { return dse.SweepVecWidths(dev, vecCfg, ns) }},
		{"simd", func() []dse.Point { return dse.SweepSIMD(dev, base, ns) }},
		{"cu", func() []dse.Point { return dse.SweepCU(dev, base, ns) }},
	} {
		if stopped(ctx, e) {
			return e, nil
		}
		g, err := pointsToGBps(route.sweep(), kernel.Copy)
		if err != nil {
			return nil, fmt.Errorf("fig4b %s: %w", route.name, err)
		}
		e.Series = append(e.Series, Series{Name: route.name, X: x, GBps: g, Paper: paperdata.Fig4b[route.name]})
	}
	return e, nil
}

// Targets reproduces the Section IV device table. It performs no
// simulation, so the context is not consulted.
func Targets(_ context.Context) (*Experiment, error) {
	tb := report.NewTable("target", "description", "kind", "peak GB/s (paper)", "memory", "optimal loop")
	for _, dev := range targets.All() {
		info := dev.Info()
		tb.AddRowf(info.ID, info.Description, info.Kind.String(),
			fmt.Sprintf("%.1f (%.0f)", info.PeakMemGBps, paperdata.PeakGBps[info.ID]),
			report.HumanBytes(info.MemBytes), info.OptimalLoop.String())
	}
	return &Experiment{
		ID:    "targets",
		Title: "Section IV: experimental targets",
		Extra: tb,
	}, nil
}

// PCIe measures the host<->device stream mode (EXP-X1): effective copy
// bandwidth when sources and destination live on the host.
func PCIe(ctx context.Context) (*Experiment, error) {
	sizes := []int64{64 << 10, 1 << 20, 16 << 20, 64 << 20}
	e := &Experiment{
		ID:     "pcie",
		Title:  "EXP-X1: host<->device streams (copy, GB/s, transfers included)",
		XLabel: "array size (MB)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		var g []float64
		for _, s := range sizes {
			if ctx.Err() != nil {
				break
			}
			cfg := baseConfig(s)
			cfg.HostIO = true
			res, err := core.Run(dev, cfg)
			if err != nil {
				return nil, fmt.Errorf("pcie %s: %w", id, err)
			}
			g = append(g, res.Kernel(kernel.Copy).GBps)
		}
		e.Series = append(e.Series, Series{Name: id, X: sizesToMB(sizes), GBps: g})
	}
	e.Notes = append(e.Notes,
		"cpu is loopback (host==device); others are bounded by their PCIe link")
	return e, nil
}

// Resources reproduces the Section IV resource observation (EXP-X2): the
// FPGA footprint of vectorization vs num_simd_work_items vs
// num_compute_units at equal nominal parallelism.
func Resources(ctx context.Context) (*Experiment, error) {
	dev, err := targets.ByID("aocl")
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("route", "N", "logic (ALM)", "registers", "BRAM", "DSP", "fmax MHz", "util %")
	part := fabric.StratixVD5
	var notes []string
	for _, n := range paperdata.Fig4bN() {
		if runstate.FromContext(ctx) != "" {
			notes = append(notes, stopNote(ctx))
			break
		}
		for _, route := range []string{"vector", "simd", "cu"} {
			k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange}
			switch route {
			case "vector":
				k.Loop = kernel.FlatLoop
				k.VecWidth = n
			case "simd":
				k.Attrs.NumSIMDWorkItems = n
				k.Attrs.ReqdWorkGroupSize = 256
			case "cu":
				k.Attrs.NumComputeUnits = n
			}
			c, err := dev.Compile(k)
			if err != nil {
				tb.AddRowf(route, n, "-", "-", "-", "-", "-", "does not fit")
				continue
			}
			res, _ := c.Resources()
			mhz, _ := c.FmaxMHz()
			util := part.Utilization(res).Max() * 100
			tb.AddRowf(route, n, res.Logic, res.Registers, res.BRAM, res.DSP, mhz, util)
		}
	}
	return &Experiment{
		ID:    "resources",
		Title: "EXP-X2: AOCL resource usage by optimization route",
		Extra: tb,
		Notes: append([]string{
			"the paper: AOCL-specific optimizations take up more FPGA resources than native vectorization",
		}, notes...),
	}, nil
}

// Unroll sweeps the loop unroll factor on the FPGA targets (EXP-X3).
func Unroll(ctx context.Context) (*Experiment, error) {
	factors := []int{1, 2, 4, 8, 16}
	x := make([]float64, len(factors))
	for i, u := range factors {
		x[i] = float64(u)
	}
	e := &Experiment{
		ID:     "unroll",
		Title:  "EXP-X3: loop unroll factor, 4 MB copy (GB/s)",
		XLabel: "unroll factor",
	}
	for _, id := range []string{"aocl", "sdaccel"} {
		if stopped(ctx, e) {
			return e, nil
		}
		dev, err := targets.ByID(id)
		if err != nil {
			return nil, err
		}
		cfg := baseConfig(4 << 20)
		cfg.OptimalLoop = false
		cfg.Loop = dev.Info().OptimalLoop
		g, err := pointsToGBps(dse.SweepUnroll(dev, cfg, factors), kernel.Copy)
		if err != nil {
			return nil, fmt.Errorf("unroll %s: %w", id, err)
		}
		e.Series = append(e.Series, Series{Name: id, X: x, GBps: g})
	}
	return e, nil
}

// Preshape quantifies the paper's pre-shaping observation (EXP-X4): when
// data is re-read k times, re-arranging it once on the host so accesses
// become contiguous beats repeating strided accesses.
func Preshape(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:     "preshape",
		Title:  "EXP-X4: strided vs pre-shaped access, 16 MB copy, k reuses (effective GB/s)",
		XLabel: "k (number of passes over the data)",
	}
	ks := []float64{1, 2, 4, 8, 16}
	for _, id := range []string{"cpu", "gpu"} {
		if stopped(ctx, e) {
			return e, nil
		}
		dev, err := targets.ByID(id)
		if err != nil {
			return nil, err
		}
		cfg := baseConfig(16 << 20)
		cfg.Pattern = mem.ColMajorPattern()
		strided, err := core.Run(dev, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Pattern = mem.ContiguousPattern()
		contig, err := core.Run(dev, cfg)
		if err != nil {
			return nil, err
		}
		tStr := strided.Kernel(kernel.Copy).BestSeconds
		tCon := contig.Kernel(kernel.Copy).BestSeconds
		// Pre-shaping costs one strided pass (gather), then every reuse
		// runs contiguous.
		bytes := float64(kernel.Copy.BytesMoved(cfg.ArrayBytes))
		var always, preshaped []float64
		for _, k := range ks {
			always = append(always, k*bytes/(k*tStr)/1e9)
			preshaped = append(preshaped, k*bytes/(tStr+k*tCon)/1e9)
		}
		e.Series = append(e.Series,
			Series{Name: id + "-strided", X: ks, GBps: always},
			Series{Name: id + "-preshaped", X: ks, GBps: preshaped},
		)
	}
	e.Notes = append(e.Notes,
		"pre-shaping pays once its one-off gather is amortized — the paper's host re-arrangement insight")
	return e, nil
}

// Dtype compares int and double elements across targets (EXP-X5).
func Dtype(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:     "dtype",
		Title:  "EXP-X5: data type, 4 MB copy (GB/s)",
		XLabel: "type (1=int 2=double)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		g, err := pointsToGBps(dse.SweepTypes(dev, baseConfig(4<<20)), kernel.Copy)
		if err != nil {
			return nil, fmt.Errorf("dtype %s: %w", id, err)
		}
		e.Series = append(e.Series, Series{Name: id, X: []float64{1, 2}, GBps: g})
	}
	return e, nil
}

// Efficiency is EXP-X7, the paper's future-work item: energy efficiency
// of the four targets at their tuned copy configurations.
func Efficiency(ctx context.Context) (*Experiment, error) {
	tb := report.NewTable("target", "config", "copy GB/s", "watts", "MB/J")
	var notes []string
	for _, dev := range targets.All() {
		if runstate.FromContext(ctx) != "" {
			notes = append(notes, stopNote(ctx))
			break
		}
		info := dev.Info()
		cfg := baseConfig(16 << 20)
		label := "vec1"
		if info.Kind == device.FPGA {
			cfg.VecWidth = 16 // the tuned FPGA configuration
			label = "vec16"
		}
		res, err := core.Run(dev, cfg)
		if err != nil {
			return nil, fmt.Errorf("efficiency %s: %w", info.ID, err)
		}
		bw := res.Kernel(kernel.Copy).GBps
		tb.AddRowf(info.ID, label, bw, info.WattsAt(bw), info.MBPerJoule(bw))
	}
	return &Experiment{
		ID:    "efficiency",
		Title: "EXP-X7: energy efficiency at tuned copy configurations",
		Extra: tb,
		Notes: append([]string{
			"the paper's future-work conjecture: tuned FPGAs beat the CPU on MB/J;",
			"the GDDR5 GPU still leads on pure bandwidth-per-watt for streaming",
		}, notes...),
	}, nil
}

// HMC is EXP-X8, the paper's closing remark: a Hybrid Memory Cube board
// "can change the picture considerably". It sweeps vector width on the
// DDR3 board and on an HMC variant of the same fabric.
func HMC(ctx context.Context) (*Experiment, error) {
	ns := paperdata.VecWidths()
	x := make([]float64, len(ns))
	for i, n := range ns {
		x[i] = float64(n)
	}
	e := &Experiment{
		ID:     "hmc",
		Title:  "EXP-X8: DDR3 board vs Hybrid Memory Cube variant, 4 MB copy (GB/s)",
		XLabel: "vector width (words)",
	}
	cfg := baseConfig(4 << 20)
	cfg.OptimalLoop = false
	cfg.Loop = kernel.FlatLoop

	for _, variant := range []struct {
		name string
		dev  device.Device
	}{
		{"aocl-ddr3", aocl.New()},
		{"aocl-hmc", aocl.NewWithConfig(aocl.HMCConfig())},
	} {
		if stopped(ctx, e) {
			return e, nil
		}
		g, err := pointsToGBps(dse.SweepVecWidths(variant.dev, cfg, ns), kernel.Copy)
		if err != nil {
			return nil, fmt.Errorf("hmc %s: %w", variant.name, err)
		}
		e.Series = append(e.Series, Series{Name: variant.name, X: x, GBps: g})
	}
	e.Notes = append(e.Notes,
		"HMC removes the DRAM wall; the kernel-clock interconnect becomes the new ceiling")
	return e, nil
}

// StrideSweep is EXP-X9: the benchmark's second access-pattern family,
// a fixed element stride. The paper's Figure 2 axis is annotated
// "[Stride2]"; this sweep makes the fixed-stride interpretation runnable
// alongside the column-major one and shows the cache-line/burst
// granularity staircase.
func StrideSweep(ctx context.Context) (*Experiment, error) {
	strides := []int{1, 2, 4, 8, 16, 32}
	x := make([]float64, len(strides))
	for i, s := range strides {
		x[i] = float64(s)
	}
	e := &Experiment{
		ID:     "stride",
		Title:  "EXP-X9: fixed-stride access, 4 MB copy (GB/s)",
		XLabel: "element stride (words)",
	}
	for _, dev := range targets.All() {
		if stopped(ctx, e) {
			return e, nil
		}
		id := dev.Info().ID
		var g []float64
		for _, s := range strides {
			if ctx.Err() != nil {
				break
			}
			cfg := baseConfig(4 << 20)
			cfg.Pattern = mem.StridedPattern(s)
			res, err := core.Run(dev, cfg)
			if err != nil {
				return nil, fmt.Errorf("stride %s/%d: %w", id, s, err)
			}
			g = append(g, res.Kernel(kernel.Copy).GBps)
		}
		e.Series = append(e.Series, Series{Name: id, X: x, GBps: g})
	}
	e.Notes = append(e.Notes,
		"stride 1 equals contiguous; throughput falls towards the line/burst-granularity floor as the stride widens")
	return e, nil
}

// Runner regenerates one experiment under a context: a canceled or
// deadline-expired context returns the partially collected experiment
// (annotated with a canonical stop note), not an error.
type Runner func(context.Context) (*Experiment, error)

// Registry maps experiment ids to their runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		// targets is not wrapped: it performs no simulation and completes
		// whole even under a canceled context, so a stop note would lie.
		{"targets", Targets},
		{"fig1a", annotated(Fig1a)},
		{"fig1b", annotated(Fig1b)},
		{"fig2", annotated(Fig2)},
		{"fig3", annotated(Fig3)},
		{"fig4a", annotated(Fig4a)},
		{"fig4b", annotated(Fig4b)},
		{"pcie", annotated(PCIe)},
		{"resources", annotated(Resources)},
		{"unroll", annotated(Unroll)},
		{"preshape", annotated(Preshape)},
		{"dtype", annotated(Dtype)},
		{"efficiency", annotated(Efficiency)},
		{"hmc", annotated(HMC)},
		{"stride", annotated(StrideSweep)},
	}
}

// ByID returns the runner for one experiment id.
func ByID(id string) (Runner, error) {
	for _, ent := range Registry() {
		if ent.ID == id {
			return ent.Run, nil
		}
	}
	var ids []string
	for _, ent := range Registry() {
		ids = append(ids, ent.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}

// Table renders an experiment's series as a table: one row per x value,
// measured and paper columns per series.
func (e *Experiment) Table() *report.Table {
	if e.Extra != nil {
		return e.Extra
	}
	headers := []string{e.XLabel}
	for _, s := range e.Series {
		headers = append(headers, s.Name)
		if s.Paper != nil {
			headers = append(headers, s.Name+" (paper)")
		}
	}
	tb := report.NewTable(headers...)
	rows := 0
	var xAxis []float64
	for _, s := range e.Series {
		if len(s.X) > rows {
			rows = len(s.X)
			xAxis = s.X
		}
	}
	for i := 0; i < rows; i++ {
		var cells []string
		if i < len(xAxis) {
			cells = append(cells, report.FormatFloat(xAxis[i]))
		} else {
			cells = append(cells, "")
		}
		for _, s := range e.Series {
			if i < len(s.GBps) {
				cells = append(cells, report.FormatFloat(s.GBps[i]))
			} else {
				cells = append(cells, "")
			}
			if s.Paper != nil {
				if i < len(s.Paper) {
					cells = append(cells, report.FormatFloat(s.Paper[i]))
				} else {
					cells = append(cells, "")
				}
			}
		}
		tb.AddRow(cells...)
	}
	return tb
}

// WriteText renders the experiment as a table plus (for size sweeps) a
// log-log chart, and the paper-deviation summary.
func (e *Experiment) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s [%s]\n", e.Title, e.ID); err != nil {
		return err
	}
	if err := e.Table().WriteText(w); err != nil {
		return err
	}
	if e.Extra == nil && len(e.Series) > 0 && len(e.Series[0].X) >= 5 {
		ch := report.Chart{LogX: true, LogY: true, XLabel: e.XLabel, YLabel: "GB/s"}
		for _, s := range e.Series {
			ch.Add(report.Series{Name: s.Name, X: s.X, Y: s.GBps})
		}
		if err := ch.Write(w); err != nil {
			return err
		}
	}
	for _, s := range e.Series {
		if s.Paper != nil {
			fmt.Fprintf(w, "deviation %-16s worst factor %.2fx\n", s.Name, s.WorstFactor())
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteMarkdown renders the experiment for EXPERIMENTS.md.
func (e *Experiment) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s (`%s`)\n\n", e.Title, e.ID); err != nil {
		return err
	}
	if err := e.Table().WriteMarkdown(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, s := range e.Series {
		if s.Paper != nil {
			fmt.Fprintf(w, "- `%s`: worst deviation %.2fx from the paper series\n", s.Name, s.WorstFactor())
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "- note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the experiment's table as CSV, preceded by no
// decoration at all: the output of `mpsweep -csv` is meant for
// spreadsheets and plotting scripts, one table per experiment.
func (e *Experiment) WriteCSV(w io.Writer) error {
	return e.Table().WriteCSV(w)
}

// GeoMeanDeviation summarizes all paper-comparable series of an
// experiment as the geometric mean of per-point factors; 1.0 is perfect.
func (e *Experiment) GeoMeanDeviation() float64 {
	var logs []float64
	for _, s := range e.Series {
		n := len(s.Paper)
		if len(s.GBps) < n {
			n = len(s.GBps)
		}
		for i := 0; i < n; i++ {
			got, want := s.GBps[i], s.Paper[i]
			if got <= 0 || want <= 0 {
				continue
			}
			f := got / want
			if f < 1 {
				f = 1 / f
			}
			logs = append(logs, math.Log(f))
		}
	}
	if len(logs) == 0 {
		return 1
	}
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Exp(sum / float64(len(logs)))
}
