// Package device defines the abstraction the MP-STREAM benchmark runs
// against: a heterogeneous compute device that compiles a kernel
// configuration into an execution plan and predicts how long one
// invocation takes on its simulated memory system.
//
// Four back-ends implement Device, mirroring the paper's experimental
// setup: cpusim (Intel Xeon E5-2609 v2), gpusim (NVIDIA GTX Titan Black),
// aocl (Altera Stratix V under AOCL 15.1) and sdaccel (Xilinx Virtex-7
// under SDAccel 2015.1). Each embeds a Board and samples its memory
// system through Board.Sample.
package device

import (
	"fmt"
	"strings"

	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/link"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// Kind classifies a device.
type Kind uint8

// Device kinds.
const (
	CPU Kind = iota
	GPU
	FPGA
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case FPGA:
		return "fpga"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MarshalText encodes the kind as its name, for the service wire format.
func (k Kind) MarshalText() ([]byte, error) {
	if k > FPGA {
		return nil, fmt.Errorf("device: unknown kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// ParseKind resolves a kind name (case-insensitive).
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "cpu":
		return CPU, nil
	case "gpu":
		return GPU, nil
	case "fpga":
		return FPGA, nil
	default:
		return 0, fmt.Errorf("device: unknown kind %q (want cpu|gpu|fpga)", s)
	}
}

// UnmarshalText decodes a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	v, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Info describes a device the way the paper's Section IV table does.
type Info struct {
	// ID is the short name used throughout figures: "cpu", "gpu", "aocl",
	// "sdaccel".
	ID string `json:"id"`
	// Description is the full hardware/toolchain identification.
	Description string `json:"description"`
	Kind        Kind   `json:"kind"`
	// PeakMemGBps is the peak global-memory bandwidth (the dotted lines
	// in Figure 1).
	PeakMemGBps float64 `json:"peak_mem_gbps"`
	// MemBytes is the usable global memory.
	MemBytes int64 `json:"mem_bytes"`
	// OptimalLoop is the loop-management mode this target prefers
	// (Figure 3): NDRange for CPU/GPU, flat for AOCL, nested for SDAccel.
	OptimalLoop kernel.LoopMode `json:"optimal_loop"`
	// IdleWatts and PeakWatts bound the board power draw: idle and at
	// full memory-bandwidth load. They drive the energy-efficiency
	// extension (the paper's future-work item).
	IdleWatts float64 `json:"idle_watts"`
	PeakWatts float64 `json:"peak_watts"`
}

// WattsAt estimates draw at a sustained bandwidth: idle power plus the
// dynamic share scaled by memory utilization.
func (i Info) WattsAt(gbps float64) float64 {
	if i.PeakMemGBps <= 0 {
		return i.IdleWatts
	}
	u := gbps / i.PeakMemGBps
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return i.IdleWatts + (i.PeakWatts-i.IdleWatts)*u
}

// MBPerJoule is the energy-efficiency figure of merit: sustained MB moved
// per joule at the given bandwidth.
func (i Info) MBPerJoule(gbps float64) float64 {
	w := i.WattsAt(gbps)
	if w <= 0 {
		return 0
	}
	return gbps * 1000 / w
}

// Exec carries the per-invocation run parameters: the benchmark's
// remaining tuning knobs that are not part of the kernel itself.
type Exec struct {
	// ArrayBytes is the size of each array operand.
	ArrayBytes int64
	// Pattern is the data access pattern (contiguous / strided /
	// column-major 2D).
	Pattern mem.Pattern
}

// Validate checks exec parameters against a kernel.
func (e Exec) Validate(k kernel.Kernel) error {
	if e.ArrayBytes <= 0 {
		return fmt.Errorf("device: array bytes %d must be positive", e.ArrayBytes)
	}
	eb := int64(k.ElemBytes())
	if e.ArrayBytes%eb != 0 {
		return fmt.Errorf("device: array bytes %d not a multiple of element size %d", e.ArrayBytes, eb)
	}
	return e.Pattern.Validate(int(e.ArrayBytes / eb))
}

// Elems returns the number of kernel elements (vector-width granules).
func (e Exec) Elems(k kernel.Kernel) int {
	return int(e.ArrayBytes / int64(k.ElemBytes()))
}

// Compiled is a kernel lowered for one device.
type Compiled interface {
	// Seconds predicts the simulated duration of one kernel invocation
	// over device-resident arrays.
	Seconds(e Exec) (float64, error)
	// Resources reports the FPGA resource usage; ok is false for
	// non-FPGA devices.
	Resources() (res fabric.Resources, ok bool)
	// FmaxMHz reports the synthesized clock; ok is false for non-FPGA
	// devices.
	FmaxMHz() (mhz float64, ok bool)
}

// Device is one benchmark target.
type Device interface {
	Info() Info
	// Compile lowers a kernel, rejecting configurations the target's
	// toolchain cannot build (e.g. an FPGA design that does not fit).
	Compile(k kernel.Kernel) (Compiled, error)
	// LaunchOverheadSeconds is the fixed host-side cost of one kernel
	// enqueue + completion (driver, doorbell, reorder). It dominates
	// small-array bandwidth in Figure 1(a).
	LaunchOverheadSeconds() float64
	// Link is the host-device interconnect used for buffer transfers.
	Link() *link.Link
	// Reset restores cold state (caches, open rows) between experiments.
	Reset()
}

// MemorySystem is the optional interface of back-ends whose global
// memory is a dram.Model. The bandwidth–latency surface subsystem
// (internal/surface) asserts it to drive the memory controller directly
// with loaded-latency probe traffic; every simulated target implements
// it. It is deliberately not part of Device so injected test doubles
// stay trivial.
type MemorySystem interface {
	// MemModel returns the device's global-memory timing model.
	MemModel() *dram.Model
}

// Board is the skeleton every simulated target embeds. It implements
// Device's Info, LaunchOverheadSeconds, Link and Reset, and
// MemorySystem, so a back-end adds only Compile and its mechanism model.
// Its Sample is the one place that decides when a repeated invocation
// may reuse an answer: besides the on-chip cache the board keeps each
// kernel's last answer since Reset, and the windows of its sampled
// contiguous runs, one entry per kernel and coalescing window, a set
// the design space bounds. A Board is not safe for concurrent use;
// Sample updates its cache and its memos.
type Board struct {
	info    Info
	mem     *dram.Model
	link    *link.Link
	launch  float64
	window  uint64                   // sampling window in transactions
	llc     *cache.Config            // the on-chip cache; nil when the board has none
	warm    bool                     // exact runs see the cache as earlier invocations left it
	cache   *cache.Cache             // built from llc on the first Sample
	answers map[kernel.Kernel]answer // each kernel's last remembered answer since Reset
	windows map[windowKey]windowPair // sampled windows of contiguous walks, built on first use
	owed    func()                   // replays the long window a remembered answer skipped; nil when none
}

// Body is a target's service body, the simulation Board.Sample runs: it
// services src, a fresh request stream of one kernel invocation, on
// cache c (nil on a board without one). With window 0 it runs the whole
// stream and reports it as both measurements. Otherwise it runs a
// sampled point in one pass: the long window, 2·window transactions,
// with a checkpoint (dram.Checkpoint) that gives the short window, the
// first window transactions, as a run that ended there would measure
// it. The board resets c before every run that must start cold.
type Body func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement)

// answer is one Sample call's result and the arguments that fixed it.
type answer struct {
	e      Exec
	window uint32
	est    sample.Estimate
	err    error
}

// windowKey names the sampled windows of one contiguous kernel walk:
// the kernel and its coalescing window fix the request stream's prefix
// (see Sample).
type windowKey struct {
	k      kernel.Kernel
	window uint32
}

// windowPair is one sampled run's two window measurements and how many
// requests of the kernel's stream the run pulled.
type windowPair struct {
	short, long sample.Measurement
	read        uint64
}

// countSource counts the requests pulled through it.
type countSource struct {
	src mem.Source
	n   uint64
}

// NextBatch implements mem.Source.
func (c *countSource) NextBatch(dst []mem.Request) int {
	n := c.src.NextBatch(dst)
	c.n += uint64(n)
	return n
}

// NewBoard builds a board; info's PeakMemGBps comes from dramCfg and its
// MemBytes from memBytes. window is the sampling window (sample.Run).
// llc configures the on-chip cache in the memory path, nil for none; it
// is validated here (panicking like cache.New), but the cache itself is
// built by the first Sample, so a board that never runs a kernel never
// allocates it. warm is the target's fact about that cache: its exact
// runs see the state earlier invocations left (a CPU's LLC) rather than
// starting cold.
func NewBoard(info Info, memBytes int64, dramCfg dram.Config, linkCfg link.Config,
	launchSec float64, window uint64, llc *cache.Config, warm bool) Board {
	info.PeakMemGBps = dramCfg.PeakGBps()
	info.MemBytes = memBytes
	b := Board{info: info, mem: dram.New(dramCfg), link: link.New(linkCfg),
		launch: launchSec, window: window}
	if llc != nil {
		if err := llc.Validate(); err != nil {
			panic(err)
		}
		cfg := *llc
		b.llc, b.warm = &cfg, warm
	}
	return b
}

// Info implements Device.
func (b *Board) Info() Info { return b.info }

// LaunchOverheadSeconds implements Device.
func (b *Board) LaunchOverheadSeconds() float64 { return b.launch }

// Link implements Device.
func (b *Board) Link() *link.Link { return b.link }

// Reset implements Device: a cold on-chip cache and no remembered
// answers. A cache not built yet is cold already, and DRAM state needs
// no reset: every simulation services its stream from cold. A cold
// cache owes no long window; the remembered windows stay, since none of
// them read the cache's state.
func (b *Board) Reset() {
	clear(b.answers)
	b.owed = nil
	if b.cache != nil {
		b.cache.Reset()
	}
}

// MemModel implements MemorySystem.
func (b *Board) MemModel() *dram.Model { return b.mem }

// Wrap prefixes err with the board ID and the kernel name.
func (b *Board) Wrap(k kernel.Kernel, err error) error {
	return fmt.Errorf("%s: %s: %w", b.info.ID, k.Name(), err)
}

// CheckKernel is the prologue of every Compile: k must be valid and a
// throughput kernel.
func (b *Board) CheckKernel(k kernel.Kernel) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if k.Op == kernel.Chase {
		return fmt.Errorf("%s: chase is a latency probe, not a throughput kernel; run it through the surface subsystem", b.info.ID)
	}
	return nil
}

// CheckExec validates e against k and checks that the kernel's arrays
// fit in the board's memory.
func (b *Board) CheckExec(k kernel.Kernel, e Exec) error {
	if err := e.Validate(k); err != nil {
		return err
	}
	if need := int64(k.Op.Streams()) * e.ArrayBytes; need > b.info.MemBytes {
		return fmt.Errorf("%s: %d bytes exceed device memory %d", b.info.ID, need, b.info.MemBytes)
	}
	return nil
}

// Sample estimates the memory time of one invocation of k over a
// checked e, its streams coalesced up to window bytes (KernelSource),
// by running the target's body on a fresh request stream.
//
// A benchmark runs every kernel NTIMES, and Sample alone decides when a
// repetition may reuse an answer. An answer is a pure function of the
// board, k, e and window, unless it comes from an exact run on a warm
// board, which reads the cache earlier invocations left. Sample
// remembers each kernel's last pure answer until Reset and returns it
// for an equal call before any request stream is built or validated.
//
// The board's cache is built on the first call and persists. The board
// resets it before every sampled run and, unless the board is warm,
// before every exact run; a board without a cache passes run a nil c.
// An exact run is one run of the whole stream on the board's cache. A
// sampled run is one run of the long window, which leaves the cache as
// the long window leaves it, the state a sequential sample.Run leaves
// behind; the short window is the long run's checkpoint.
//
// A sampled contiguous walk's windows are remembered per (k, window)
// and serve later sampled calls at other array sizes, which re-run only
// sample.Fit with their own total. That relies on run's measurements of
// a sampled point being a pure function of the board, k and the
// requests it pulls from src, true of all four back-ends. Each stream
// of a contiguous walk from StreamBases starts with the same requests
// at every size: only its last request (a partial coalescing window)
// and its length depend on elems. The interleave is round-robin over
// equal-length streams, so the first r requests of the walk are the
// same at every size whose total is at least r plus the stream count:
// no stream reaches its last request. r is counted, not assumed to be
// 2·window, because a body may read ahead of its budget (the DRAM
// controller's reorder window does). Strided and column-major walks
// are never remembered: their pass length and shape depend on elems.
//
// A sampled answer given without simulating, by either memo, skips the
// long window the cache would have seen. Only a warm board's next exact
// run can tell, so only a warm board owes the long window, and that run
// replays it first; Reset and a sampled run that simulates clear the
// debt.
func (b *Board) Sample(k kernel.Kernel, e Exec, window uint32, run Body) (sample.Estimate, error) {
	if a, ok := b.answers[k]; ok && a.e == e && a.window == window {
		if a.est.Sampled {
			b.owe(k, e, window, run)
		}
		return a.est, a.err
	}
	est, err := b.estimate(k, e, window, run)
	if est.Sampled || !b.warm {
		if b.answers == nil {
			b.answers = make(map[kernel.Kernel]answer)
		}
		b.answers[k] = answer{e: e, window: window, est: est, err: err}
	}
	return est, err
}

// estimate is Sample without its answer memo.
func (b *Board) estimate(k kernel.Kernel, e Exec, window uint32, run Body) (sample.Estimate, error) {
	elems, elemB := e.Elems(k), k.ElemBytes()
	if _, err := KernelSource(k.Op, elems, elemB, e.Pattern, window); err != nil {
		return sample.Estimate{}, b.Wrap(k, err)
	}
	total := TxnCount(k.Op, elems, elemB, e.Pattern, window)
	if b.cache == nil && b.llc != nil {
		b.cache = cache.New(*b.llc)
	}
	if sample.Exact(total, b.window) {
		if b.owed != nil {
			b.owed()
			b.owed = nil
		}
		_, m, _ := b.simulate(k, e, window, run, 0)
		return sample.Estimate{Seconds: m.Seconds}, nil
	}
	// fits reports whether a prefix of read requests is the same at
	// this size as at every other that fits it.
	fits := func(read uint64) bool { return read+uint64(k.Op.Streams()) <= total }
	key, memo := windowKey{k, window}, e.Pattern.Kind == mem.Contiguous
	if memo {
		if w, ok := b.windows[key]; ok && fits(w.read) {
			b.owe(k, e, window, run)
			return b.fit(k, w.short, w.long, total)
		}
	}
	b.owed = nil
	short, long, read := b.simulate(k, e, window, run, b.window)
	if memo && fits(read) {
		if b.windows == nil {
			b.windows = make(map[windowKey]windowPair)
		}
		b.windows[key] = windowPair{short: short, long: long, read: read}
	}
	return b.fit(k, short, long, total)
}

// simulate runs run over a fresh stream of k over a checked e,
// coalesced up to window bytes, on the board's cache, with sampling
// window sampleWindow (0 = the whole stream), and reports how many
// requests of the stream it pulled. The cache starts cold unless the
// run is exact on a warm board.
func (b *Board) simulate(k kernel.Kernel, e Exec, window uint32, run Body, sampleWindow uint64) (short, long sample.Measurement, read uint64) {
	if b.cache != nil && (sampleWindow > 0 || !b.warm) {
		b.cache.Reset()
	}
	src, _ := KernelSource(k.Op, e.Elems(k), k.ElemBytes(), e.Pattern, window) // checked by Sample
	cs := countSource{src: src}
	short, long = run(&cs, sampleWindow, b.cache)
	return short, long, cs.n
}

// owe records that a sampled run of k over a checked e was answered
// without simulating. Its long window would have left the cache in the
// state it leaves, which only a warm board's exact runs read: a warm
// board owes the long window, and its next exact run replays it first.
func (b *Board) owe(k kernel.Kernel, e Exec, window uint32, run Body) {
	if b.warm {
		b.owed = func() { b.simulate(k, e, window, run, b.window) }
	}
}

// fit extrapolates a sampled run's windows to total transactions.
func (b *Board) fit(k kernel.Kernel, short, long sample.Measurement, total uint64) (sample.Estimate, error) {
	est, err := sample.Fit(short, long, total)
	if err != nil {
		return est, b.Wrap(k, err)
	}
	return est, nil
}

// ServiceDRAM is the Body of a board without a cache in the memory
// path: the stream goes straight to DRAM. A sampled point is one run
// bounded to 2·window with a checkpoint at window. It ignores c;
// concurrent calls each service on private DRAM state.
func (b *Board) ServiceDRAM(src mem.Source, window uint64, _ *cache.Cache) (short, long sample.Measurement) {
	if window == 0 {
		m := measured(b.mem.Service(src))
		return m, m
	}
	cp := dram.Checkpoint{At: window}
	res := b.mem.ServiceCheckpoint(src, 2*window, &cp)
	return measured(cp.Result), measured(res)
}

// measured is a DRAM run's measurement.
func measured(r dram.Result) sample.Measurement {
	return sample.Measurement{Txns: r.Txns, Seconds: r.Seconds}
}

// CacheRun is what a run through a cache into DRAM reports: the DRAM
// result and the cache's activity.
type CacheRun struct {
	DRAM  dram.Result
	Cache cache.Stats
}

// ServiceCache is the core of a Body with cache c in the memory path:
// the stream goes through c into the board's DRAM. With window 0 the
// whole stream runs on c as it stands, reported as both runs. A sampled
// point runs on c as the board reset it, the stream to 2·window
// requests in one pass; at window the stream pauses, the cache's
// statistics are read, and the DRAM controller takes its checkpoint,
// whose copy ends with a flush of a copy of the cache's write-combining
// buffers, as a run whose stream ended there would.
func (b *Board) ServiceCache(src mem.Source, window uint64, c *cache.Cache) (short, long CacheRun) {
	if window == 0 {
		before := c.Stats()
		res := b.mem.Service(cache.NewMissFilter(c, src))
		long = CacheRun{DRAM: res, Cache: c.Stats().Delta(before)}
		return long, long
	}
	cp := dram.Checkpoint{Fork: func() { short.Cache = c.Stats() }}
	n := int(window)
	long.DRAM = b.mem.ServiceCheckpoint(cache.NewMissFilter(c, mem.NewPausingLimit(src, n, n)), 0, &cp)
	long.Cache, short.DRAM = c.Stats(), cp.Result
	return short, long
}

// Plan is the part of a compiled kernel every target shares: it
// implements Compiled's Kernel, Resources and FmaxMHz, and a back-end's
// plan adds Seconds.
type Plan struct {
	K     kernel.Kernel
	Synth *fabric.Synthesis // FPGA synthesis; nil for non-FPGA targets
}

// Resources implements Compiled.
func (p *Plan) Resources() (fabric.Resources, bool) {
	if p.Synth == nil {
		return fabric.Resources{}, false
	}
	return p.Synth.Res, true
}

// FmaxMHz implements Compiled.
func (p *Plan) FmaxMHz() (float64, bool) {
	if p.Synth == nil {
		return 0, false
	}
	return p.Synth.FmaxMHz, true
}

// DrainSegments counts how many times a pipelined FPGA kernel drains per
// invocation over elems elements: once per outer iteration of a nested
// loop, otherwise once.
func DrainSegments(loop kernel.LoopMode, elems int) int64 {
	if loop == kernel.NestedLoop {
		rows, _ := mem.Shape2D(elems)
		return int64(rows)
	}
	return 1
}

// StreamBases returns non-overlapping base addresses for the benchmark
// arrays: stream 0 is the destination a, streams 1..n the sources b, c.
// Arrays are spaced 2 GiB apart, far beyond any modelled array size.
func StreamBases(streams int) []uint64 {
	bases := make([]uint64, streams)
	for i := range bases {
		bases[i] = uint64(i) << 31
	}
	return bases
}

// KernelSource builds the interleaved request stream one kernel invocation
// presents to the memory system: for each loop trip, one read per input
// array then one write to the destination, each stream walked with the
// given pattern at elemBytes granularity and coalesced up to coalesceBytes
// (the device's LSU/coalescer window; pass elemBytes to disable merging).
func KernelSource(op kernel.Op, elems int, elemBytes uint32, p mem.Pattern, coalesceBytes uint32) (mem.Source, error) {
	bases := StreamBases(op.Streams())
	srcs := make([]mem.Source, 0, op.Streams())
	// Reads first (b, then c), then the write to a: stream tags match
	// array identity (0=a, 1=b, 2=c).
	for i := 1; i <= op.InputStreams(); i++ {
		it, err := mem.NewIter(p, bases[i], elems, elemBytes, mem.Read, uint8(i))
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, wrapCoalesce(it, elemBytes, coalesceBytes))
	}
	wr, err := mem.NewIter(p, bases[0], elems, elemBytes, mem.Write, 0)
	if err != nil {
		return nil, err
	}
	srcs = append(srcs, wrapCoalesce(wr, elemBytes, coalesceBytes))
	if len(srcs) == 1 {
		return srcs[0], nil
	}
	return mem.NewInterleave(srcs...), nil
}

func wrapCoalesce(s mem.Source, elemBytes, coalesceBytes uint32) mem.Source {
	if coalesceBytes <= elemBytes {
		return s
	}
	return mem.NewCoalescer(s, coalesceBytes)
}

// TxnCount predicts exactly how many transactions KernelSource yields
// after coalescing: address-adjacent walks (effective stride 1) merge up
// to the window, any larger stride defeats merging entirely.
func TxnCount(op kernel.Op, elems int, elemBytes uint32, p mem.Pattern, coalesceBytes uint32) uint64 {
	perStream := uint64(elems)
	if coalesceBytes > elemBytes && p.EffectiveStrideElems(elems) == 1 {
		bytes := uint64(elems) * uint64(elemBytes)
		perStream = (bytes + uint64(coalesceBytes) - 1) / uint64(coalesceBytes)
	}
	return perStream * uint64(op.Streams())
}
