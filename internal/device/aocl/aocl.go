// Package aocl models the paper's FPGA-AOCL target: an Altera Stratix V
// GS D5 (Nallatech PCIe-385) compiled with AOCL 15.1.
//
// The model captures the mechanisms that shape AOCL's MP-STREAM curves:
//
//   - single work-item loops lower to an II=1 pipeline whose load/store
//     units burst-coalesce contiguous streams (512-byte bursts on the
//     Avalon interconnect), so bandwidth = datapath width x fmax until
//     the interconnect or DRAM saturates;
//   - the global-memory interconnect is one 512-bit bus clocked at the
//     kernel's fmax — the hard ceiling that makes vec8/vec16 saturate
//     near 15 GB/s rather than the 25.6 GB/s DRAM peak;
//   - fmax degrades as the datapath widens or is replicated (fabric
//     cost model), so each doubling of vector width yields slightly
//     less than 2x;
//   - plain NDRange kernels schedule work-items through the pipeline
//     with dispatch bubbles and element-granularity (uncoalesced)
//     accesses; num_simd_work_items restores static coalescing at the
//     cost of replicated control and LSU arbitration;
//   - num_compute_units clones the whole pipeline; the clones contend
//     for the interconnect, so scaling falls off beyond a few units —
//     the paper's Figure 4(b) observation that native vectorization is
//     the more reliable optimization;
//   - a nested (2D) loop drains the pipeline once per outer iteration,
//     which is why it trails the flat loop slightly on this target.
package aocl

import (
	"fmt"
	"math"

	"mpstream/internal/device"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/link"
)

// Config collects every tunable of the AOCL device model. Defaults are
// calibrated to the paper's board (Section IV: 25 GB/s peak).
type Config struct {
	// ID and Description override the device identity; empty means the
	// default Stratix V / AOCL 15.1 identity. Variants (e.g. HMC) set
	// their own so platforms can host both side by side.
	ID          string
	Description string

	DRAM dram.Config
	Cost fabric.CostModel
	Part fabric.Part
	PCIe link.Config

	// MemBytes is the board DRAM capacity.
	MemBytes int64
	// LaunchOverheadSec is the fixed enqueue-to-start plus completion
	// cost of one kernel invocation.
	LaunchOverheadSec float64
	// InterconnectBytes is the width of the single global-memory
	// interconnect in bytes per kernel-clock cycle (512-bit Avalon).
	InterconnectBytes int
	// LSUBurstBytes is the burst-coalescing window of single work-item
	// LSUs.
	LSUBurstBytes uint32
	// NDRangeBurstBytes is the dynamic burst-buffer window of NDRange
	// work-item LSUs (smaller than the static single work-item bursts).
	NDRangeBurstBytes uint32
	// NDRangeDispatchII is the average cycles per work-item for plain
	// NDRange kernels (scheduling bubbles). WGDispatchII applies instead
	// when reqd_work_group_size is given: a known work-group shape lets
	// the compiler build a tighter dispatcher — the paper's rationale for
	// recommending the attribute on OpenCL-FPGA compilers.
	NDRangeDispatchII float64
	WGDispatchII      float64
	// SIMDArbLin/Quad and CUArbLin/Quad are the arbitration-contention
	// coefficients: efficiency = 1/(1 + lin*(n-1) + quad*(n-1)^2).
	SIMDArbLin, SIMDArbQuad float64
	CUArbLin, CUArbQuad     float64
	// SampleWindowTxns bounds exact DRAM simulation; larger runs are
	// extrapolated from two windows.
	SampleWindowTxns uint64
}

// DefaultConfig returns the calibrated Stratix V / AOCL 15.1 model.
func DefaultConfig() Config {
	return Config{
		DRAM: dram.Config{
			Name:            "aocl-ddr3",
			Channels:        2,
			BanksPerChannel: 8,
			RowBytes:        8192,
			BurstBytes:      64,
			BusGBps:         12.8, // DDR3-1600 x 64-bit per bank
			RowMissNs:       45,
			TurnaroundNs:    7.5,
			BatchSize:       16,
			ActWindowNs:     40,
			ActsPerWindow:   4,
			RefreshLoss:     0.03,
			InterleaveBytes: 1024, // AOCL default burst interleaving
			HashChannels:    false,
		},
		Cost: fabric.CostModel{
			BaseFmaxMHz:       316,
			MinFmaxMHz:        150,
			WidthPenalty:      0.06,
			ReplPenalty:       0.08,
			BasePipelineDepth: 120,
			DepthPerLaneLog2:  15,
			BaseUnit:          fabric.Resources{Logic: 3000, Registers: 7000, BRAM: 10},
			PerLane:           fabric.Resources{Logic: 450, Registers: 1000, BRAM: 1},
			PerReplLane:       fabric.Resources{Logic: 900, Registers: 2000, BRAM: 2},
			PerStream:         fabric.Resources{Logic: 1800, Registers: 3800, BRAM: 8},
			MultiplierDSP:     1,
		},
		Part: fabric.StratixVD5,
		PCIe: link.Config{
			Name:            "aocl-pcie",
			GBps:            3.2, // Gen2 x8 era BSP
			LatencyUs:       2,
			SetupUs:         15,
			MaxPayloadBytes: 4 << 20,
		},
		MemBytes:          8 << 30,
		LaunchOverheadSec: 48e-6,
		InterconnectBytes: 64,
		LSUBurstBytes:     512,
		NDRangeBurstBytes: 64,
		NDRangeDispatchII: 1.3,
		WGDispatchII:      1.15,
		SIMDArbLin:        0.05,
		SIMDArbQuad:       0.008,
		CUArbLin:          0.12,
		CUArbQuad:         0.02,
		SampleWindowTxns:  1 << 18,
	}
}

// HMCConfig is the future-work variant the paper closes with: the same
// Stratix-V-class fabric attached to a Hybrid Memory Cube instead of two
// DDR3 DIMMs. HMC brings many short-row vaults with fast activation (no
// practical tFAW) and a far higher aggregate peak; to exploit it the
// shell widens the kernel-side interconnect to 1024 bits. The kernel
// clock then becomes the new bandwidth wall — which is exactly the
// "picture changes considerably" experiment (EXP-X8).
func HMCConfig() Config {
	cfg := DefaultConfig()
	cfg.DRAM = dram.Config{
		Name:            "aocl-hmc",
		Channels:        8, // vault groups behind the serial links
		BanksPerChannel: 16,
		RowBytes:        256, // short HMC pages
		BurstBytes:      32,
		BusGBps:         20, // 160 GB/s aggregate
		RowMissNs:       15,
		TurnaroundNs:    3,
		BatchSize:       16,
		RefreshLoss:     0.02,
		InterleaveBytes: 256,
		HashChannels:    true,
		HashBanks:       true,
	}
	cfg.InterconnectBytes = 128 // 1024-bit kernel-side interconnect
	cfg.MemBytes = 4 << 30
	cfg.ID = "aocl-hmc"
	cfg.Description = "Stratix-V-class fabric with Hybrid Memory Cube (future-work variant) [simulated]"
	return cfg
}

// Device is the AOCL target.
type Device struct {
	device.Board
	cfg Config
}

// New builds the device with the default configuration.
func New() *Device { return NewWithConfig(DefaultConfig()) }

// NewWithConfig builds the device with an explicit configuration
// (ablation studies tweak individual mechanisms).
func NewWithConfig(cfg Config) *Device {
	id, desc := cfg.ID, cfg.Description
	if id == "" {
		id = "aocl"
	}
	if desc == "" {
		desc = "Altera Stratix V GS D5 (Nallatech PCIe-385), AOCL 15.1 [simulated]"
	}
	info := device.Info{
		ID:          id,
		Description: desc,
		Kind:        device.FPGA,
		OptimalLoop: kernel.FlatLoop,
		IdleWatts:   21,
		PeakWatts:   30, // Nallatech 385 board power envelope
	}
	return &Device{cfg: cfg, Board: device.NewBoard(info, cfg.MemBytes, cfg.DRAM, cfg.PCIe,
		cfg.LaunchOverheadSec, cfg.SampleWindowTxns, nil, false)}
}

// arbEff is the shared arbitration-efficiency polynomial.
func arbEff(n int, lin, quad float64) float64 {
	if n <= 1 {
		return 1
	}
	x := float64(n - 1)
	return 1 / (1 + lin*x + quad*x*x)
}

// plan is a compiled AOCL kernel.
type plan struct {
	device.Plan
	dev *Device

	issueGBps     float64 // sustained pipeline issue, after all efficiencies
	coalesceBytes uint32
}

// Compile implements device.Device.
func (d *Device) Compile(k kernel.Kernel) (device.Compiled, error) {
	if err := d.CheckKernel(k); err != nil {
		return nil, err
	}
	// AOCL 15.1 requires a fixed work-group size to vectorize work-items.
	if k.Attrs.NumSIMDWorkItems > 1 && k.Attrs.ReqdWorkGroupSize == 0 {
		return nil, fmt.Errorf("%s: num_simd_work_items(%d) requires reqd_work_group_size",
			d.Info().ID, k.Attrs.NumSIMDWorkItems)
	}

	simd := max(1, k.Attrs.NumSIMDWorkItems)
	units := max(1, k.Attrs.NumComputeUnits)
	unroll := 1
	if k.Loop != kernel.NDRange && k.Attrs.Unroll > 1 {
		unroll = k.Attrs.Unroll
	}
	lanes := k.VecWidth * simd * unroll
	repl := 0
	if simd > 1 {
		repl = simd
	}
	shape := fabric.Shape{
		LanesPerUnit:    lanes,
		Units:           units,
		Streams:         k.Op.Streams(),
		WordBytes:       int(k.Type.Bytes()),
		UsesMultiplier:  k.Op.NeedsScalar(),
		ReplicatedLanes: repl,
	}
	synth, err := d.cfg.Cost.Synthesize(shape)
	if err != nil {
		return nil, err
	}
	if err := d.cfg.Part.Fit(synth.Res); err != nil {
		return nil, d.Wrap(k, err)
	}

	// Pipeline issue bandwidth. The single global interconnect caps raw
	// traffic at its width times the kernel clock; dispatch bubbles and
	// arbitration stalls then throttle whatever survives the cap (a
	// stalled pipeline leaves interconnect slots empty too).
	issue := synth.IssueGBps(shape)
	interconnect := float64(d.cfg.InterconnectBytes) * synth.FmaxMHz * 1e6 / 1e9
	if issue > interconnect {
		issue = interconnect
	}
	if k.Loop == kernel.NDRange {
		// Plain NDRange pays work-item dispatch bubbles; a declared
		// work-group size tightens the dispatcher, and SIMD vectorization
		// pipelines whole sub-groups and removes the bubbles entirely.
		if simd <= 1 {
			ii := d.cfg.NDRangeDispatchII
			if k.Attrs.ReqdWorkGroupSize > 0 && d.cfg.WGDispatchII > 0 {
				ii = d.cfg.WGDispatchII
			}
			issue /= ii
		}
		issue *= arbEff(simd, d.cfg.SIMDArbLin, d.cfg.SIMDArbQuad)
	}
	issue *= arbEff(units, d.cfg.CUArbLin, d.cfg.CUArbQuad)

	// LSU coalescing: single work-item LSUs statically infer wide bursts;
	// NDRange work-item LSUs dynamically buffer one memory burst (wider
	// when SIMD statically coalesces adjacent work-items).
	var window uint32
	switch {
	case k.Loop != kernel.NDRange:
		window = d.cfg.LSUBurstBytes
	default:
		window = d.cfg.NDRangeBurstBytes
		if w := k.ElemBytes() * uint32(simd); w > window {
			window = w
		}
	}

	return &plan{Plan: device.Plan{K: k, Synth: &synth}, dev: d,
		issueGBps: issue, coalesceBytes: window}, nil
}

// Seconds implements device.Compiled: it predicts one invocation over
// e. The board answers a repeated invocation's memory time without
// simulating it again (device.Board.Sample).
func (p *plan) Seconds(e device.Exec) (float64, error) {
	k := p.K
	if err := p.dev.CheckExec(k, e); err != nil {
		return 0, err
	}
	totalBytes := float64(k.Op.Streams()) * float64(e.ArrayBytes)

	issueSec := totalBytes / (p.issueGBps * 1e9)

	est, err := p.dev.Sample(k, e, p.coalesceBytes, p.dev.ServiceDRAM)
	if err != nil {
		return 0, err
	}

	sec := math.Max(issueSec, est.Seconds)
	sec += p.Synth.DrainSeconds(device.DrainSegments(k.Loop, e.Elems(k)))
	return sec, nil
}
