// Package gpusim models the paper's GPU target: an NVIDIA GeForce GTX
// Titan Black (Kepler GK110B, 15 SMX, 6 GDDR5 channels, 336 GB/s peak).
//
// The mechanisms that shape the GPU's MP-STREAM behaviour:
//
//   - NDRange kernels launch one thread per element; a warp's 32
//     contiguous word accesses coalesce into 128-byte transactions, so
//     contiguous streams run at DRAM speed;
//   - sustained/peak ratio (~62%) emerges from GDDR5 read/write bus
//     turnaround and refresh in the DRAM model, not from a fudge factor;
//   - wide vector types raise per-thread register pressure, cutting
//     resident warps; with fewer warps in flight Little's law bounds the
//     achievable bandwidth — the vec8/vec16 droop in Figure 1(b);
//   - a sectored, write-validating L2 coalesces partial-sector writes
//     and gives column-major walks their sector reuse, producing the
//     strided plateau of Figure 2;
//   - once a strided walk's page working set exceeds the TLB, address
//     translation throughput caps the run — the falloff beyond 64 MB in
//     the strided series;
//   - a single work-item kernel uses one thread on one SM: a few memory
//     round trips in flight instead of hundreds of thousands, which is
//     the Figure 3 cliff for loop kernels on GPUs.
package gpusim

import (
	"math"

	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/link"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// Config collects the GPU device model tunables.
type Config struct {
	DRAM dram.Config
	L2   cache.Config
	PCIe link.Config

	MemBytes          int64
	LaunchOverheadSec float64

	// SM/occupancy model.
	SMs               int
	CoreClockMHz      float64
	RegFilePerSM      int // 32-bit registers per SM
	ThreadsPerWarp    int
	MaxWarpsPerSM     int
	MinWarpsPerSM     int
	BaseRegsPerThread int
	RegsPerVecWord    int // extra registers per vector word per thread

	// Memory path.
	CoalesceBytes uint32  // warp coalescing window
	MemLatencyNs  float64 // average global load latency
	// UncoalescedReplayCycles is the LSU issue cost per transaction when
	// a warp's accesses do not coalesce: the instruction replays once per
	// distinct sector, costing this many cycles each. It is what makes
	// the strided plateau flat and size-independent.
	UncoalescedReplayCycles float64

	// Single work-item (loop kernel) model.
	FlatMLP, NestedMLP float64

	// TLB model: translation throughput caps strided walks whose page
	// working set exceeds the TLB reach.
	PageBytes  uint64
	TLBEntries int
	WalkRate   float64 // page walks per second the MMU sustains

	SampleWindowTxns uint64
}

// DefaultConfig returns the calibrated Titan Black model.
func DefaultConfig() Config {
	return Config{
		DRAM: dram.Config{
			Name:            "gddr5",
			Channels:        6,
			BanksPerChannel: 16,
			RowBytes:        2048,
			BurstBytes:      32,
			BusGBps:         56, // 7 GT/s x 64-bit per channel
			RowMissNs:       40,
			TurnaroundNs:    15,
			BatchSize:       64,
			ActWindowNs:     24,
			ActsPerWindow:   6,
			RefreshLoss:     0.03,
			InterleaveBytes: 256,
			HashChannels:    true,
			HashBanks:       true,
		},
		L2: cache.Config{
			Name:          "gpu-l2",
			CapacityBytes: 1536 << 10,
			LineBytes:     32, // sector granularity
			Ways:          24, // 2048 sets
			WriteValidate: true,
			HashSets:      true,
		},
		PCIe: link.Config{
			Name:            "gpu-pcie",
			GBps:            11.0, // Gen3 x16
			LatencyUs:       1.2,
			SetupUs:         6,
			MaxPayloadBytes: 4 << 20,
		},
		MemBytes:                6 << 30,
		LaunchOverheadSec:       11e-6,
		SMs:                     15,
		CoreClockMHz:            889,
		RegFilePerSM:            65536,
		ThreadsPerWarp:          32,
		MaxWarpsPerSM:           64,
		MinWarpsPerSM:           8,
		BaseRegsPerThread:       22,
		RegsPerVecWord:          3,
		CoalesceBytes:           128,
		MemLatencyNs:            350,
		UncoalescedReplayCycles: 2,
		FlatMLP:                 8,
		NestedMLP:               6,
		PageBytes:               128 << 10,
		TLBEntries:              1024,
		WalkRate:                1.6e9,
		SampleWindowTxns:        1 << 19,
	}
}

// Device is the GPU target.
type Device struct {
	device.Board
	cfg Config
}

// New builds the device with the default configuration.
func New() *Device { return NewWithConfig(DefaultConfig()) }

// NewWithConfig builds the device with an explicit configuration. Reset
// leaves the L2 cold.
func NewWithConfig(cfg Config) *Device {
	info := device.Info{
		ID:          "gpu",
		Description: "NVIDIA GeForce GTX Titan Black (GK110B), OpenCL [simulated]",
		Kind:        device.GPU,
		OptimalLoop: kernel.NDRange,
		IdleWatts:   40,
		PeakWatts:   230, // memory-bound draw, under the 250 W TDP
	}
	return &Device{cfg: cfg, Board: device.NewBoard(info, cfg.MemBytes, cfg.DRAM, cfg.PCIe,
		cfg.LaunchOverheadSec, cfg.SampleWindowTxns, &cfg.L2)}
}

// Occupancy returns resident warps per SM for a kernel, from its register
// pressure. Exposed for tests and reports.
func (d *Device) Occupancy(k kernel.Kernel) int {
	regs := d.cfg.BaseRegsPerThread + d.cfg.RegsPerVecWord*k.VecWidth*int(k.Type.Bytes())/4
	warps := d.cfg.RegFilePerSM / (d.cfg.ThreadsPerWarp * regs)
	if warps > d.cfg.MaxWarpsPerSM {
		warps = d.cfg.MaxWarpsPerSM
	}
	if warps < d.cfg.MinWarpsPerSM {
		warps = d.cfg.MinWarpsPerSM
	}
	return warps
}

// plan is a compiled GPU kernel.
type plan struct {
	device.Plan
	dev   *Device
	warps int
}

// Compile implements device.Device. The GPU toolchain ignores FPGA vendor
// attributes (as real OpenCL compilers ignore unknown annotations) but
// still validates the generic kernel structure.
func (d *Device) Compile(k kernel.Kernel) (device.Compiled, error) {
	if err := d.CheckKernel(k); err != nil {
		return nil, err
	}
	return &plan{Plan: device.Plan{K: k}, dev: d, warps: d.Occupancy(k)}, nil
}

// Seconds implements device.Compiled. Every simulated window starts
// from a cold L2 and fresh DRAM state, so the answer depends on e alone
// and repeated invocations reuse the first one.
func (p *plan) Seconds(e device.Exec) (float64, error) { return p.Memo.Do(e, p.simulate) }

// simulate predicts one invocation over e.
func (p *plan) simulate(e device.Exec) (float64, error) {
	k := p.K
	cfg := p.dev.cfg
	if err := p.dev.CheckExec(k, e); err != nil {
		return 0, err
	}
	elems := e.Elems(k)
	elemB := k.ElemBytes()
	totalBytes := float64(k.Op.Streams()) * float64(e.ArrayBytes)

	// Single work-item kernels: one thread, a handful of outstanding
	// round trips.
	if k.Loop != kernel.NDRange {
		mlp := cfg.FlatMLP
		if k.Loop == kernel.NestedLoop {
			mlp = cfg.NestedMLP
		}
		if u := float64(k.Attrs.Unroll); u > 1 {
			// Unrolling exposes a little more ILP to the single thread.
			mlp *= 1 + math.Log2(u)/4
		}
		accesses := float64(elems) * float64(k.Op.Streams())
		return accesses * cfg.MemLatencyNs * 1e-9 / mlp, nil
	}

	unitStride := e.Pattern.EffectiveStrideElems(elems) == 1
	window := elemB
	if unitStride && cfg.CoalesceBytes > window {
		window = cfg.CoalesceBytes
	}

	// Latency-hiding bound (Little's law): resident warps each keep one
	// coalesced transaction in flight.
	inflightPerWarp := float64(window)
	if !unitStride {
		// Scattered warp accesses: each lane's sector is independent and
		// the LSU keeps many in flight; DRAM/TLB bind instead.
		inflightPerWarp = float64(cfg.ThreadsPerWarp) * float64(cfg.L2.LineBytes)
	}
	bwLat := float64(cfg.SMs) * float64(p.warps) * inflightPerWarp / (cfg.MemLatencyNs * 1e-9)
	issueSec := totalBytes / bwLat
	if !unitStride {
		// Non-unit strides replay the load once per distinct sector a
		// warp touches: a short stride still packs several lanes per
		// sector, a large stride gives one sector per lane.
		strideBytes := float64(e.Pattern.EffectiveStrideElems(elems)) * float64(elemB)
		sectorsPerAccess := strideBytes / float64(cfg.L2.LineBytes)
		if sectorsPerAccess > 1 {
			sectorsPerAccess = 1
		}
		accesses := float64(elems) * float64(k.Op.Streams())
		replaySec := accesses * sectorsPerAccess * cfg.UncoalescedReplayCycles /
			(float64(cfg.SMs) * cfg.CoreClockMHz * 1e6)
		if replaySec > issueSec {
			issueSec = replaySec
		}
	}

	// Memory system: coalesced stream through the sectored L2 into GDDR5.
	measure := func(r device.CacheRun) sample.Measurement {
		sec := r.DRAM.Seconds
		// L2-resident traffic moves at L2 speed even when DRAM is idle.
		l2Bytes := float64(r.Cache.L1Transfers) * float64(cfg.L2.LineBytes)
		l2Sec := l2Bytes / (500e9) // sectored L2 service rate
		if l2Sec > sec {
			sec = l2Sec
		}
		return sample.Measurement{Txns: r.Cache.Accesses, Seconds: sec}
	}
	est, err := p.dev.Sample(k, e, window, func(src mem.Source, w uint64, l2 *cache.Cache) (short, long sample.Measurement) {
		if w == 0 {
			l2.Reset() // exact runs start from a cold L2 too; sampled ones always do
		}
		s, l := p.dev.ServiceCache(src, w, l2)
		return measure(s), measure(l)
	})
	if err != nil {
		return 0, err
	}
	memSec := est.Seconds

	// TLB reach: a strided walk whose per-pass page set exceeds the TLB
	// pays a page walk per access.
	stride := e.Pattern.EffectiveStrideElems(elems)
	if stride > 1 {
		passLen := elems / stride
		arrayPages := int(e.ArrayBytes/int64(cfg.PageBytes)) + 1
		pagesPerPass := passLen
		if arrayPages < pagesPerPass {
			pagesPerPass = arrayPages
		}
		if pagesPerPass > cfg.TLBEntries {
			accesses := float64(elems) * float64(k.Op.Streams())
			tlbSec := accesses / cfg.WalkRate
			if tlbSec > memSec {
				memSec = tlbSec
			}
		}
	}

	if issueSec > memSec {
		return issueSec, nil
	}
	return memSec, nil
}
