// Package mpstream is the public API of the MP-STREAM reproduction: a
// memory-performance benchmark for design-space exploration on
// heterogeneous HPC devices (Nabi & Vanderbauwhede, RAW@IPDPS 2018),
// implemented in pure Go over simulated CPU, GPU and FPGA targets.
//
// The essential loop mirrors the paper's workflow:
//
//	dev, _ := mpstream.TargetByID("aocl")
//	cfg := mpstream.DefaultConfig()
//	cfg.VecWidth = 16
//	res, _ := mpstream.Run(dev, cfg)
//	fmt.Println(res.Kernel(mpstream.Copy).GBps)
//
// Deeper layers are exported through aliases: kernels and their tuning
// attributes (kernel IR), access patterns, design-space sweeps (dse) and
// the per-figure experiment drivers.
package mpstream

import (
	"context"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/experiments"
	"mpstream/internal/hoststream"
	"mpstream/internal/kernel"
	"mpstream/internal/runstate"
	"mpstream/internal/service"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// Core benchmark types.
type (
	// Config is a full MP-STREAM configuration (all paper tuning knobs).
	Config = core.Config
	// Result is one benchmark run on one device.
	Result = core.Result
	// KernelResult is the measurement for one STREAM kernel.
	KernelResult = core.KernelResult
	// Device is a benchmark target.
	Device = device.Device
	// DeviceInfo describes a target.
	DeviceInfo = device.Info
)

// Kernel IR types.
type (
	// Op is one of the four STREAM operations.
	Op = kernel.Op
	// DataType is the array element type.
	DataType = kernel.DataType
	// LoopMode is the kernel loop-management parameter.
	LoopMode = kernel.LoopMode
	// Attrs carries optional kernel attributes (unroll, vendor knobs).
	Attrs = kernel.Attrs
	// Kernel is a fully parameterized kernel.
	Kernel = kernel.Kernel
	// Pattern is a data access pattern.
	Pattern = mem.Pattern
)

// The four STREAM operations, plus the pointer-chase latency probe of
// the surface subsystem (not part of default benchmark runs).
const (
	Copy  = kernel.Copy
	Scale = kernel.Scale
	Add   = kernel.Add
	Triad = kernel.Triad
	Chase = kernel.Chase
)

// Element types.
const (
	Int32   = kernel.Int32
	Float64 = kernel.Float64
)

// Loop-management modes.
const (
	NDRange    = kernel.NDRange
	FlatLoop   = kernel.FlatLoop
	NestedLoop = kernel.NestedLoop
)

// DefaultConfig returns the paper's baseline configuration: all four
// kernels over 4 MB int arrays, contiguous, optimal loop management,
// verified results.
func DefaultConfig() Config { return core.DefaultConfig() }

// Run executes a configuration on a device.
func Run(dev Device, cfg Config) (*Result, error) { return core.Run(dev, cfg) }

// RunContext is Run under a context: cancellation is checked between
// kernels and repetitions, and a canceled or deadline-expired run
// returns the context's error.
func RunContext(ctx context.Context, dev Device, cfg Config) (*Result, error) {
	return core.RunContext(ctx, dev, cfg)
}

// Canonical partial-result states: multi-point operations stopped by a
// context tag what they collected with one of these (see the Stopped
// fields of SearchResult and Surface).
const (
	StopCanceled = runstate.Canceled
	StopDeadline = runstate.Deadline
)

// Targets returns fresh instances of the paper's four devices in figure
// order: aocl, sdaccel, cpu, gpu.
func Targets() []Device { return targets.All() }

// TargetIDs lists the target ids in figure order.
func TargetIDs() []string { return targets.IDs() }

// TargetByID returns a fresh instance of one target.
func TargetByID(id string) (Device, error) { return targets.ByID(id) }

// Access patterns.
var (
	// Contiguous walks the arrays in address order.
	Contiguous = mem.ContiguousPattern
	// Strided walks with a fixed element stride.
	Strided = mem.StridedPattern
	// ColMajor walks a row-major 2D view column-major (the paper's
	// strided experiments; the stride grows with the array).
	ColMajor = mem.ColMajorPattern
)

// Design-space exploration.
type (
	// SweepPoint is one evaluated configuration of a sweep.
	SweepPoint = dse.Point
	// Space is a parameter grid for exhaustive exploration.
	Space = dse.Space
	// Exploration ranks the feasible points of a Space.
	Exploration = dse.Exploration
)

// Explore searches a parameter grid for the best configuration of op on
// a device.
func Explore(dev Device, base Config, space Space, op Op) Exploration {
	return dse.Explore(dev, base, space, op)
}

// ExploreParallel is Explore fanned out over GOMAXPROCS goroutines.
// newDev must return a fresh device per call (e.g. a TargetByID
// closure): devices carry simulator state and are not shared across
// workers. Results are byte-identical to Explore over the same grid.
func ExploreParallel(newDev func() (Device, error), base Config, space Space, op Op) Exploration {
	return dse.ExploreParallel(dse.DeviceFactory(newDev), base, space, op)
}

// Adaptive search (the budgeted optimizer strategies of dse/search).
type (
	// SearchOptions selects a strategy, budget and seed for Optimize.
	SearchOptions = search.Options
	// SearchResult is the outcome of one Optimize run: best point,
	// Pareto front, ranked exploration and evaluation trace.
	SearchResult = search.Result
	// ParetoPoint is one non-dominated bandwidth/resource trade-off.
	ParetoPoint = search.ParetoPoint
)

// Optimize searches a parameter grid with a budgeted strategy
// (exhaustive, random, hillclimb, anneal) instead of enumerating it.
// Unique simulations are bounded by the budget and deduplicated by
// configuration fingerprint; seeded stochastic runs reproduce exactly.
func Optimize(dev Device, base Config, space Space, op Op, opts SearchOptions) (*SearchResult, error) {
	return search.Run(dev, base, space, op, opts)
}

// OptimizeContext is Optimize under a context: the search stops between
// evaluations when ctx ends and returns its partial result — best point
// so far, ranking and trace — tagged via SearchResult.Stopped.
func OptimizeContext(ctx context.Context, dev Device, base Config, space Space, op Op, opts SearchOptions) (*SearchResult, error) {
	return search.RunContext(ctx, dev, base, space, op, opts)
}

// SearchStrategies lists the registered optimizer strategy names.
func SearchStrategies() []string { return search.Strategies() }

// SearchObjectives lists the optimizer ranking metrics ("gbps" ranks by
// raw sustained bandwidth, "knee" by the bandwidth–latency-surface
// knee).
func SearchObjectives() []string { return search.Objectives() }

// Bandwidth–latency surface (loaded latency across patterns, read/write
// ratios and an injection-rate ladder, with knee detection).
type (
	// SurfaceConfig parameterizes a surface measurement; the zero value
	// measures a sensible default surface.
	SurfaceConfig = surface.Config
	// Surface is a device's full bandwidth–latency characterization.
	Surface = surface.Surface
	// SurfaceCurve is the ladder for one (pattern, read-fraction) pair.
	SurfaceCurve = surface.Curve
	// SurfaceKnee is the highest bandwidth at acceptable loaded latency.
	SurfaceKnee = surface.Knee
)

// RunSurface measures a device's bandwidth–latency surface.
func RunSurface(dev Device, cfg SurfaceConfig) (*Surface, error) {
	return core.RunSurfaceContext(context.Background(), dev, cfg)
}

// RunSurfaceContext is RunSurface under a context: the injection-rate
// ladder stops between rungs when ctx ends and the partial surface is
// returned tagged via Surface.Stopped.
func RunSurfaceContext(ctx context.Context, dev Device, cfg SurfaceConfig) (*Surface, error) {
	return core.RunSurfaceContext(ctx, dev, cfg)
}

// Benchmark-as-a-service layer (cmd/mpserved): a job queue, bounded
// worker pool and LRU result cache behind an HTTP JSON API.
type (
	// ServiceOptions configures a benchmark service; the zero value is a
	// production-shaped default.
	ServiceOptions = service.Options
	// Service schedules runs and sweeps onto workers and caches results
	// by canonical configuration fingerprint.
	Service = service.Server
	// ServiceJob is one queued benchmark job.
	ServiceJob = service.Job
)

// NewService builds a benchmark service and starts its worker pool.
// Serve its Handler() over HTTP and Close() it when done.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// Experiment reproduction (the paper's figures and tables).
type Experiment = experiments.Experiment

// RunExperiment regenerates one figure/table by id (fig1a, fig1b, fig2,
// fig3, fig4a, fig4b, targets, pcie, resources, unroll, preshape, dtype).
func RunExperiment(id string) (*Experiment, error) {
	return RunExperimentContext(context.Background(), id)
}

// RunExperimentContext is RunExperiment under a context: a canceled or
// deadline-expired run returns the partially collected experiment,
// annotated with a canonical stop note, not an error.
func RunExperimentContext(ctx context.Context, id string) (*Experiment, error) {
	run, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return run(ctx)
}

// Host STREAM baseline (real measurement on the machine running this
// process).
type (
	// HostConfig sizes the host STREAM baseline.
	HostConfig = hoststream.Config
	// HostResult is a host STREAM run.
	HostResult = hoststream.Result
)

// RunHost executes the pure-Go STREAM baseline with wall-clock timing.
func RunHost(cfg HostConfig) (*HostResult, error) { return hoststream.Run(cfg) }
