// Package sdaccel models the paper's FPGA-SDACCEL target: a Xilinx
// Virtex-7 XC7VX690T (Alpha-Data ADM-PCIE-7V3) compiled with SDAccel
// 2015.1.
//
// SDAccel 2015-era lowering differs from AOCL in ways the paper measures
// directly, and the model reproduces each mechanism:
//
//   - a flat single work-item loop is NOT pipelined by default: every
//     iteration performs sequential memory round trips over the AXI
//     shell (~hundreds of ns each), which is why the flat-loop bar in
//     Figure 3 sits orders of magnitude below the rest; the
//     xcl_pipeline_loop attribute pipelines it but still without burst
//     inference;
//   - a nested (2D) loop triggers burst inference on the inner loop:
//     512-byte AXI bursts and an II=1 pipeline — "the memory-access
//     logic is synthesized differently, even if the eventual underlying
//     access pattern is exactly the same" (paper, Section IV);
//   - burst inference requires a compile-time unit-stride inner loop, so
//     strided/column-major runs fall back to latency-bound accesses —
//     the near-constant 0.01 GB/s strided series in Figure 2;
//   - kernel ports are AXI masters of fixed width shared by all arrays
//     unless max_memory_ports gives each argument its own port, and
//     memory port width is configurable (the paper's two
//     SDAccel-specific knobs);
//   - the single DDR3 channel behind a 2015-era MIG controller has poor
//     read/write turnaround behaviour, capping streaming efficiency
//     around 60%.
package sdaccel

import (
	"fmt"
	"math"

	"mpstream/internal/device"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/link"
)

// Config collects the SDAccel device model tunables.
type Config struct {
	DRAM dram.Config
	Cost fabric.CostModel
	Part fabric.Part
	PCIe link.Config

	MemBytes          int64
	LaunchOverheadSec float64

	// MemLatencyNs is the full kernel-to-DRAM round trip over the AXI
	// shell, paid per access by unpipelined or non-burst code.
	MemLatencyNs float64
	// BurstBytes is the inferred AXI burst length for nested loops.
	BurstBytes uint32
	// DefaultPortBytes is the AXI port data width without the
	// memory-port-width attribute.
	DefaultPortBytes uint32
	// NDRangeII / NDRangePipelinedII are cycles per work-item without and
	// with xcl_pipeline_workitems.
	NDRangeII, NDRangePipelinedII float64
	// SampleWindowTxns bounds exact DRAM simulation.
	SampleWindowTxns uint64
	// LatencyOverlap is the number of outstanding accesses unpipelined
	// code keeps in flight (1 = fully serial).
	LatencyOverlap float64
}

// DefaultConfig returns the calibrated Virtex-7 / SDAccel 2015.1 model.
func DefaultConfig() Config {
	return Config{
		DRAM: dram.Config{
			Name:            "sdaccel-ddr3",
			Channels:        1,
			BanksPerChannel: 8,
			RowBytes:        8192,
			BurstBytes:      64,
			BusGBps:         10.7, // DDR3-1333 x 64-bit
			RowMissNs:       48,
			TurnaroundNs:    25, // 2015-era MIG scheduling
			BatchSize:       3,
			ActWindowNs:     40,
			ActsPerWindow:   4,
			RefreshLoss:     0.05,
			InterleaveBytes: 1024,
		},
		Cost: fabric.CostModel{
			BaseFmaxMHz:       95,
			MinFmaxMHz:        40,
			WidthPenalty:      0.08,
			ReplPenalty:       0.10,
			BasePipelineDepth: 48,
			DepthPerLaneLog2:  6,
			BaseUnit:          fabric.Resources{Logic: 8000, Registers: 16000, BRAM: 20},
			PerLane:           fabric.Resources{Logic: 900, Registers: 2000, BRAM: 2},
			PerReplLane:       fabric.Resources{Logic: 1800, Registers: 4000, BRAM: 4},
			PerStream:         fabric.Resources{Logic: 5000, Registers: 10000, BRAM: 16},
			MultiplierDSP:     2,
		},
		Part: fabric.Virtex7690T,
		PCIe: link.Config{
			Name:            "sdaccel-pcie",
			GBps:            6.0, // Gen3 x8
			LatencyUs:       2,
			SetupUs:         20,
			MaxPayloadBytes: 4 << 20,
		},
		MemBytes:           16 << 30,
		LaunchOverheadSec:  65e-6,
		MemLatencyNs:       350,
		BurstBytes:         512,
		DefaultPortBytes:   128,
		NDRangeII:          4,
		NDRangePipelinedII: 2,
		SampleWindowTxns:   1 << 18,
		LatencyOverlap:     1,
	}
}

// Device is the SDAccel target.
type Device struct {
	device.Board
	cfg Config
}

// New builds the device with the default configuration.
func New() *Device { return NewWithConfig(DefaultConfig()) }

// NewWithConfig builds the device with an explicit configuration.
func NewWithConfig(cfg Config) *Device {
	info := device.Info{
		ID:          "sdaccel",
		Description: "Xilinx Virtex-7 XC7VX690T (Alpha-Data ADM-PCIE-7V3), SDAccel 2015.1 [simulated]",
		Kind:        device.FPGA,
		OptimalLoop: kernel.NestedLoop,
		IdleWatts:   19,
		PeakWatts:   28, // ADM-PCIE-7V3 board power envelope
	}
	return &Device{cfg: cfg, Board: device.NewBoard(info, cfg.MemBytes, cfg.DRAM, cfg.PCIe,
		cfg.LaunchOverheadSec, cfg.SampleWindowTxns, nil, false)}
}

// plan is a compiled SDAccel kernel.
type plan struct {
	device.Plan
	dev   *Device
	shape fabric.Shape

	pipelined bool    // II=1 (or II=n) pipeline vs sequential iteration
	burstable bool    // burst inference available for unit-stride data
	ii        float64 // cycles per element when pipelined
	portGBps  float64 // AXI port ceiling
}

// Compile implements device.Device.
func (d *Device) Compile(k kernel.Kernel) (device.Compiled, error) {
	if err := d.CheckKernel(k); err != nil {
		return nil, err
	}
	// AOCL-only attributes are rejected rather than silently dropped.
	if k.Attrs.NumSIMDWorkItems > 1 || k.Attrs.NumComputeUnits > 1 {
		return nil, fmt.Errorf("sdaccel: num_simd_work_items/num_compute_units are AOCL attributes")
	}

	unroll := 1
	if k.Loop != kernel.NDRange && k.Attrs.Unroll > 1 {
		unroll = k.Attrs.Unroll
	}
	shape := fabric.Shape{
		LanesPerUnit:   k.VecWidth * unroll,
		Units:          1,
		Streams:        k.Op.Streams(),
		WordBytes:      int(k.Type.Bytes()),
		UsesMultiplier: k.Op.NeedsScalar(),
	}
	synth, err := d.cfg.Cost.Synthesize(shape)
	if err != nil {
		return nil, err
	}
	if err := d.cfg.Part.Fit(synth.Res); err != nil {
		return nil, d.Wrap(k, err)
	}

	p := &plan{Plan: device.Plan{K: k, Synth: &synth}, dev: d, shape: shape}
	switch k.Loop {
	case kernel.NestedLoop:
		// Burst inference on the unit-stride inner loop.
		p.pipelined, p.burstable, p.ii = true, true, 1
	case kernel.FlatLoop:
		// Not pipelined unless asked; never burst-inferred in this
		// toolchain generation.
		p.pipelined = k.Attrs.PipelineLoop
		p.ii = 1
	case kernel.NDRange:
		p.pipelined = true
		p.ii = d.cfg.NDRangeII
		if k.Attrs.PipelineWorkItems {
			p.ii = d.cfg.NDRangePipelinedII
		}
	}

	portBytes := d.cfg.DefaultPortBytes
	if k.Attrs.MemoryPortWidthBits > 0 {
		portBytes = uint32(k.Attrs.MemoryPortWidthBits / 8)
	}
	ports := 1
	if k.Attrs.MaxMemoryPorts { // one port per array argument
		ports = k.Op.Streams()
	}
	p.portGBps = float64(ports) * float64(portBytes) * synth.FmaxMHz * 1e6 / 1e9
	return p, nil
}

// Seconds implements device.Compiled: it predicts one invocation over
// e. The board answers a repeated invocation's memory time without
// simulating it again (device.Board.Sample).
func (p *plan) Seconds(e device.Exec) (float64, error) {
	k := p.K
	if err := p.dev.CheckExec(k, e); err != nil {
		return 0, err
	}
	elems := e.Elems(k)
	unitStride := e.Pattern.EffectiveStrideElems(elems) == 1

	// Latency-bound regimes: unpipelined loops, and single work-item
	// pipelines whose data is not unit-stride (burst inference fails at
	// compile time; each access is an AXI round trip).
	latencyBound := !p.pipelined ||
		(k.Loop != kernel.NDRange && p.burstable && !unitStride) ||
		(k.Loop == kernel.FlatLoop && !unitStride)
	if latencyBound {
		overlap := math.Max(1, p.dev.cfg.LatencyOverlap)
		accesses := float64(elems) * float64(k.Op.Streams())
		sec := accesses * p.dev.cfg.MemLatencyNs * 1e-9 / overlap
		sec += p.Synth.DrainSeconds(device.DrainSegments(k.Loop, elems))
		return sec, nil
	}

	// Pipelined regime: issue rate vs AXI port ceiling vs DRAM.
	totalBytes := float64(k.Op.Streams()) * float64(e.ArrayBytes)
	issue := p.Synth.IssueGBps(p.shape) / p.ii
	if issue > p.portGBps {
		issue = p.portGBps
	}
	issueSec := totalBytes / (issue * 1e9)

	window := k.ElemBytes() // no burst inference outside nested loops
	if p.burstable && unitStride {
		window = p.dev.cfg.BurstBytes
	}
	est, err := p.dev.Sample(k, e, window, p.dev.ServiceDRAM)
	if err != nil {
		return 0, err
	}

	sec := math.Max(issueSec, est.Seconds)
	sec += p.Synth.DrainSeconds(device.DrainSegments(k.Loop, elems))
	return sec, nil
}
