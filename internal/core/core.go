// Package core implements the MP-STREAM benchmark itself: the paper's
// four kernels run over its full tuning-parameter space, with STREAM's
// measurement conventions.
//
// A Config captures every knob from Section III of the paper — array
// size, data type, degree of vectorization, access pattern, kernel loop
// management, unroll factor, work-group size, vendor attributes, and the
// stream source/destination (device DRAM vs. host over PCIe). Run
// executes the configuration on one device through the cl runtime:
// NTIMES repetitions, best time excluding the first iteration, bandwidth
// with STREAM byte accounting (2x array bytes for copy/scale, 3x for
// add/triad), and elementwise verification of the results.
package core

import (
	"context"
	"fmt"
	"math"

	"mpstream/internal/cl"
	"mpstream/internal/device"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/sim/mem"
	"mpstream/internal/stats"
	"mpstream/internal/surface"
)

// Default measurement constants, matching STREAM's conventions.
const (
	DefaultNTimes = 3
	DefaultScalar = 3.0
	// Initialization constants for the source arrays. Both are integers
	// so int and double runs verify exactly against the same expectation.
	BInit = 2.0
	CInit = 5.0
)

// Config is one fully specified MP-STREAM run.
type Config struct {
	// Ops selects the kernels; nil means all four.
	Ops []kernel.Op `json:"ops,omitempty"`
	// ArrayBytes is the size of each array operand.
	ArrayBytes int64 `json:"array_bytes"`
	// Type is the element type (int or double).
	Type kernel.DataType `json:"type"`
	// VecWidth is the OpenCL vector width (1..16).
	VecWidth int `json:"vec_width"`
	// Loop is the kernel loop management; ignored when OptimalLoop is set.
	Loop kernel.LoopMode `json:"loop"`
	// OptimalLoop selects each device's best loop management (Figure 3):
	// NDRange on CPU/GPU, flat on AOCL, nested on SDAccel.
	OptimalLoop bool `json:"optimal_loop"`
	// Attrs carries unroll, work-group and vendor attributes.
	Attrs kernel.Attrs `json:"attrs"`
	// Pattern is the data access pattern.
	Pattern mem.Pattern `json:"pattern"`
	// NTimes is the repetition count; the best time excludes the first
	// (cold) iteration when NTimes > 1. Zero means DefaultNTimes.
	NTimes int `json:"ntimes"`
	// Scalar is q in scale/triad; zero means DefaultScalar.
	Scalar float64 `json:"scalar"`
	// Verify enables functional execution and result checking. Both run
	// on the arrays' one-element form (see package cl), so their cost
	// does not grow with ArrayBytes.
	Verify bool `json:"verify"`
	// HostIO measures the host<->device path: each iteration re-writes
	// the source arrays over the link and reads the result back, and the
	// timed interval covers transfers plus kernel (the paper's
	// "source/destination of streams" parameter).
	HostIO bool `json:"host_io"`
}

// DefaultConfig returns the paper's baseline: all four kernels on 4 MB
// int arrays, contiguous, scalar width, optimal loop management, verified.
func DefaultConfig() Config {
	return Config{
		ArrayBytes:  4 << 20,
		Type:        kernel.Int32,
		VecWidth:    1,
		OptimalLoop: true,
		Pattern:     mem.ContiguousPattern(),
		NTimes:      DefaultNTimes,
		Scalar:      DefaultScalar,
		Verify:      true,
	}
}

// withDefaults fills zero fields. An empty Ops slice means "all four"
// just like nil — JSON decodes "ops": [] to an empty non-nil slice.
func (c Config) withDefaults() Config {
	if len(c.Ops) == 0 {
		c.Ops = kernel.Ops()
	}
	if c.NTimes == 0 {
		c.NTimes = DefaultNTimes
	}
	if c.Scalar == 0 {
		c.Scalar = DefaultScalar
	}
	if c.VecWidth == 0 {
		c.VecWidth = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.ArrayBytes <= 0 {
		return fmt.Errorf("core: array bytes %d must be positive", c.ArrayBytes)
	}
	if c.NTimes < 1 {
		return fmt.Errorf("core: ntimes %d must be >= 1", c.NTimes)
	}
	k := c.kernelFor(c.Ops[0], kernel.NDRange)
	// The kernel shape first: ElemBytes is only meaningful, and nonzero,
	// for a valid type and vector width. Attributes are left to each
	// device's Compile, since which are legal depends on the loop mode
	// the device picks.
	shape := k
	shape.Attrs = kernel.Attrs{}
	if err := shape.Validate(); err != nil {
		return err
	}
	if c.ArrayBytes%int64(k.ElemBytes()) != 0 {
		return fmt.Errorf("core: array bytes %d not a multiple of element size %d",
			c.ArrayBytes, k.ElemBytes())
	}
	elems := int(c.ArrayBytes / int64(k.ElemBytes()))
	return c.Pattern.Validate(elems)
}

// kernelFor assembles the kernel IR for one op.
func (c Config) kernelFor(op kernel.Op, loop kernel.LoopMode) kernel.Kernel {
	if !c.OptimalLoop {
		loop = c.Loop
	}
	return kernel.Kernel{Op: op, Type: c.Type, VecWidth: c.VecWidth, Loop: loop, Attrs: c.Attrs}
}

// KernelResult is the measurement for one of the four kernels.
type KernelResult struct {
	Op         kernel.Op `json:"op"`
	Kernel     string    `json:"kernel"`      // kernel identifier (Name of the IR)
	BytesMoved int64     `json:"bytes_moved"` // STREAM-convention bytes per iteration

	Times       []float64 `json:"times"`        // per-iteration seconds, in order
	BestSeconds float64   `json:"best_seconds"` // min time, excluding iteration 0 when possible
	AvgSeconds  float64   `json:"avg_seconds"`
	GBps        float64   `json:"gbps"`     // bandwidth at the best time, 1e9 bytes/s
	Verified    bool      `json:"verified"` // result checked elementwise
}

// KBps returns the bandwidth in the KB/s (1e3) unit Figures 3 and 4(a) use.
func (r KernelResult) KBps() float64 { return r.GBps * 1e6 }

// MBps returns the bandwidth in MB/s (1e6), classic STREAM's unit.
func (r KernelResult) MBps() float64 { return r.GBps * 1e3 }

// Result is one full MP-STREAM run on one device.
type Result struct {
	Device  device.Info    `json:"device"`
	Config  Config         `json:"config"`
	Kernels []KernelResult `json:"kernels"`

	// FPGA build artefacts (zero/false elsewhere).
	Resources    fabric.Resources `json:"resources"`
	HasResources bool             `json:"has_resources"`
	FmaxMHz      float64          `json:"fmax_mhz,omitempty"`
}

// Kernel returns the result for op, or nil.
func (r *Result) Kernel(op kernel.Op) *KernelResult {
	for i := range r.Kernels {
		if r.Kernels[i].Op == op {
			return &r.Kernels[i]
		}
	}
	return nil
}

// Run executes the configuration on dev. The device is reset to cold
// state first; warm-cache effects across the NTIMES repetitions are part
// of the measurement, exactly as on hardware.
func Run(dev device.Device, cfg Config) (*Result, error) {
	return RunContext(context.Background(), dev, cfg)
}

// RunContext is Run under a context: cancellation is checked between
// kernels and between repetitions, and a canceled or deadline-expired
// run returns the context's error (a single run is one evaluation unit
// — its partial timings are not a usable result, so partial-result
// semantics live in the multi-point layers above: dse, search,
// surface, service).
func RunContext(ctx context.Context, dev device.Device, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	evalStart := obs.EvalStart()
	dev.Reset()

	clctx := cl.CreateContext(dev)
	clctx.Functional = cfg.Verify
	queue := clctx.CreateCommandQueue()
	prog := clctx.CreateProgram()

	elems := int(cfg.ArrayBytes / int64(cfg.Type.Bytes()))
	a, err := clctx.CreateBuffer(cfg.Type, elems)
	if err != nil {
		return nil, err
	}
	b, err := clctx.CreateBuffer(cfg.Type, elems)
	if err != nil {
		return nil, err
	}
	cbuf, err := clctx.CreateBuffer(cfg.Type, elems)
	if err != nil {
		return nil, err
	}
	b.Fill(BInit)
	cbuf.Fill(CInit)

	// Host mirrors for HostIO mode.
	var hostB, hostC, hostA any
	if cfg.HostIO && cfg.Verify {
		hostB, hostC, hostA = newHost(cfg.Type, BInit), newHost(cfg.Type, CInit), newHost(cfg.Type, 0)
	}

	res := &Result{Device: dev.Info(), Config: cfg}
	for _, op := range cfg.Ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := cfg.kernelFor(op, dev.Info().OptimalLoop)
		k, err := prog.BuildKernel(spec)
		if err != nil {
			return nil, err
		}
		var carg *cl.Buffer
		if op.InputStreams() == 2 {
			carg = cbuf
		}
		if err := k.SetArgs(a, b, carg, cfg.Scalar); err != nil {
			return nil, err
		}
		if !res.HasResources {
			if r, ok := k.Compiled().Resources(); ok {
				res.Resources, res.HasResources = r, true
				res.FmaxMHz, _ = k.Compiled().FmaxMHz()
			}
		}

		kr := KernelResult{
			Op:         op,
			Kernel:     spec.Name(),
			BytesMoved: op.BytesMoved(cfg.ArrayBytes),
		}
		for iter := 0; iter < cfg.NTimes; iter++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := queue.Now()
			if cfg.HostIO {
				if _, err := queue.EnqueueWriteBuffer(b, hostB); err != nil {
					return nil, err
				}
				if carg != nil {
					if _, err := queue.EnqueueWriteBuffer(cbuf, hostC); err != nil {
						return nil, err
					}
				}
			}
			if _, err := queue.EnqueueKernel(k, cfg.Pattern); err != nil {
				return nil, err
			}
			if cfg.HostIO {
				if _, err := queue.EnqueueReadBuffer(a, hostA); err != nil {
					return nil, err
				}
			}
			end := queue.Finish()
			kr.Times = append(kr.Times, end-start)
		}

		kr.BestSeconds = bestTime(kr.Times)
		s, err := stats.Summarize(kr.Times)
		if err != nil {
			return nil, err
		}
		kr.AvgSeconds = s.Mean
		if kr.BestSeconds > 0 {
			kr.GBps = float64(kr.BytesMoved) / kr.BestSeconds / 1e9
		}

		if cfg.Verify {
			want := kernel.Expected(op, cfg.Scalar, BInit, CInit)
			if err := VerifySlice(a.Data(), want, 0); err != nil {
				return nil, fmt.Errorf("core: %s on %s failed validation: %w",
					spec.Name(), dev.Info().ID, err)
			}
			kr.Verified = true
		}
		res.Kernels = append(res.Kernels, kr)
	}
	obs.EvalDone(evalStart)
	return res, nil
}

// RunSurfaceContext measures dev's bandwidth–latency surface: the
// loaded-latency characterization the surface package generates from
// the device's memory model, entered through the same device plumbing
// as Run (cold state, validated configuration). The device must expose
// its memory system (device.MemorySystem); every simulated target does.
// The injection-rate ladder stops between rungs when ctx ends and the
// partial surface is returned with its Stopped tag set (see
// surface.GenerateShardWith).
func RunSurfaceContext(ctx context.Context, dev device.Device, cfg surface.Config) (*surface.Surface, error) {
	return RunSurfaceShard(ctx, dev, cfg, 0, cfg.CurveCount(), nil)
}

// RunSurfaceShard is RunSurfaceContext restricted to the curves at
// pattern-major indices [lo, hi) — one worker's share of a distributed
// surface measurement (see surface.GenerateShardWith) — with a
// per-rung observer, the hook the service layer uses to stream surface
// job events (nil for none).
func RunSurfaceShard(ctx context.Context, dev device.Device, cfg surface.Config, lo, hi int, observe surface.Observer) (*surface.Surface, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dev.Reset()
	return surface.GenerateShardWith(ctx, dev, cfg, lo, hi, observe)
}

// SurfaceProbe derives the small single-curve surface configuration the
// DSE layer measures per design point under the "knee" objective: the
// point's own access pattern, the read fraction of its kernel op, and a
// short injection ladder. It is deliberately cheap — an optimizer
// evaluates it once per unique configuration.
func (c Config) SurfaceProbe() surface.Config {
	c = c.withDefaults()
	op := c.Ops[0]
	// The probe walks its own fixed footprint, so an explicit 2D shape
	// sized for the benchmark arrays cannot carry over; let the probe
	// derive a near-square shape for its element count instead.
	pat := c.Pattern
	if pat.Kind == mem.ColMajor2D {
		pat.Rows, pat.Cols = 0, 0
	}
	return surface.Config{
		Patterns: []mem.Pattern{pat},
		RWRatios: []float64{float64(op.InputStreams()) / float64(op.Streams())},
		Rates:    []float64{0.25, 0.5, 0.75, 0.9, 1.0},
		// The probe characterizes DRAM under the configuration's walk; a
		// fixed multi-megabyte footprint keeps it comparable across
		// array sizes and safely beyond on-chip caches.
		ArrayBytes: 8 << 20,
		WindowTxns: 2048,
		ProbeHops:  128,
	}
}

// KneeGBps measures the surface-knee bandwidth of cfg on dev: the
// bandwidth the memory system sustains at acceptable loaded latency
// under traffic shaped like cfg (SurfaceProbe). It is the alternative
// DSE objective — configurations that look fast under pure throughput
// but congest the memory system rank lower here.
func KneeGBps(dev device.Device, cfg Config) (float64, error) {
	s, err := RunSurfaceContext(context.Background(), dev, cfg.SurfaceProbe())
	if err != nil {
		return 0, err
	}
	return s.MinKneeGBps(), nil
}

// bestTime is STREAM's convention: the minimum over iterations, excluding
// the first (cold) one when more than one was run.
func bestTime(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	considered := times
	if len(times) > 1 {
		considered = times[1:]
	}
	best := considered[0]
	for _, t := range considered[1:] {
		if t < best {
			best = t
		}
	}
	return best
}

// newHost returns the one-element host mirror of a uniform array of
// value v, the form cl buffer transfers take.
func newHost(dt kernel.DataType, v float64) any {
	if dt == kernel.Float64 {
		return []float64{v}
	}
	return []int32{int32(v)}
}

// VerifySlice checks that every element of data ([]int32 or []float64)
// equals want within tol (absolute); a cl buffer's Data holds the one
// element that stands for its whole array. A nil slice (timing-only
// run) is an error: verification requires functional execution.
func VerifySlice(data any, want, tol float64) error {
	switch d := data.(type) {
	case []int32:
		w := int32(want)
		for i, v := range d {
			if v != w {
				return fmt.Errorf("element %d = %d, want %d", i, v, w)
			}
		}
		return nil
	case []float64:
		for i, v := range d {
			if math.Abs(v-want) > tol {
				return fmt.Errorf("element %d = %g, want %g", i, v, want)
			}
		}
		return nil
	case nil:
		return fmt.Errorf("no data to verify (timing-only run)")
	default:
		return fmt.Errorf("unsupported data type %T", data)
	}
}
