// Package fabric models the FPGA side of OpenCL-to-hardware compilation:
// how a kernel configuration synthesizes into a pipeline with a clock
// frequency (fmax), a pipeline depth, and a resource footprint on a given
// part.
//
// The paper's FPGA results hinge on three fabric-level effects:
//
//   - fmax degrades as the datapath widens (vectorization, unrolling,
//     SIMD lanes) and as logic is replicated (compute units) because
//     routing pressure grows — this is why doubling vector width does not
//     double bandwidth even before DRAM saturates;
//   - replication-style optimizations (num_simd_work_items,
//     num_compute_units) consume considerably more resources than native
//     vectorization for the same nominal parallelism, the paper's
//     observation in Section IV;
//   - deep pipelines drain at loop boundaries, which is what separates
//     flat from nested single work-item loops.
package fabric

import (
	"fmt"
	"math"
)

// Resources is an FPGA resource vector. Units are part-specific (ALMs for
// Intel/Altera parts, LUTs for Xilinx parts); comparisons are always
// against the same part's capacity.
type Resources struct {
	Logic     int `json:"logic"` // ALMs / LUTs
	Registers int `json:"registers"`
	BRAM      int `json:"bram"` // block RAM primitives (M20K / BRAM36)
	DSP       int `json:"dsp"`
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		Logic:     r.Logic + o.Logic,
		Registers: r.Registers + o.Registers,
		BRAM:      r.BRAM + o.BRAM,
		DSP:       r.DSP + o.DSP,
	}
}

// Scale returns the resource vector multiplied by n.
func (r Resources) Scale(n int) Resources {
	return Resources{
		Logic:     r.Logic * n,
		Registers: r.Registers * n,
		BRAM:      r.BRAM * n,
		DSP:       r.DSP * n,
	}
}

// Utilization is the per-component fraction of a part consumed.
type Utilization struct {
	Logic     float64
	Registers float64
	BRAM      float64
	DSP       float64
}

// Max returns the highest component fraction (the binding constraint).
func (u Utilization) Max() float64 {
	m := u.Logic
	for _, v := range []float64{u.Registers, u.BRAM, u.DSP} {
		if v > m {
			m = v
		}
	}
	return m
}

// Part describes an FPGA device's capacity and shell (board support
// package) overhead, which is consumed before any kernel logic.
type Part struct {
	Name     string
	Capacity Resources
	Shell    Resources
}

// StratixVD5 approximates the Altera Stratix V GS D5 on the Nallatech
// PCIe-385 (the paper's AOCL board).
var StratixVD5 = Part{
	Name:     "stratix-v-gs-d5",
	Capacity: Resources{Logic: 172600, Registers: 690400, BRAM: 2014, DSP: 1590},
	Shell:    Resources{Logic: 28000, Registers: 96000, BRAM: 300, DSP: 0},
}

// Virtex7690T approximates the Xilinx Virtex-7 XC7VX690T on the
// Alpha-Data ADM-PCIE-7V3 (the paper's SDAccel board).
var Virtex7690T = Part{
	Name:     "virtex-7-xc7vx690t",
	Capacity: Resources{Logic: 433200, Registers: 866400, BRAM: 1470, DSP: 3600},
	Shell:    Resources{Logic: 60000, Registers: 120000, BRAM: 220, DSP: 0},
}

// Utilization reports the fraction of the part used by r plus the shell.
func (p Part) Utilization(r Resources) Utilization {
	total := r.Add(p.Shell)
	frac := func(used, cap int) float64 {
		if cap == 0 {
			if used == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return float64(used) / float64(cap)
	}
	return Utilization{
		Logic:     frac(total.Logic, p.Capacity.Logic),
		Registers: frac(total.Registers, p.Capacity.Registers),
		BRAM:      frac(total.BRAM, p.Capacity.BRAM),
		DSP:       frac(total.DSP, p.Capacity.DSP),
	}
}

// ErrDoesNotFit is wrapped by Fit errors.
var ErrDoesNotFit = fmt.Errorf("fabric: design does not fit")

// Fit returns an error when the design plus shell exceeds the part.
func (p Part) Fit(r Resources) error {
	u := p.Utilization(r)
	if u.Max() > 1.0 {
		return fmt.Errorf("%w on %s: utilization logic=%.0f%% regs=%.0f%% bram=%.0f%% dsp=%.0f%%",
			ErrDoesNotFit, p.Name, u.Logic*100, u.Registers*100, u.BRAM*100, u.DSP*100)
	}
	return nil
}

// Shape is the hardware-relevant summary of a kernel configuration, as
// produced by a back-end's lowering: how wide each pipeline is, how many
// times it is replicated, and how many memory streams it touches.
type Shape struct {
	// LanesPerUnit is the datapath width in words per compute unit:
	// vector width x unroll factor x SIMD work-items.
	LanesPerUnit int
	// Units is the number of replicated compute units.
	Units int
	// Streams is the number of array streams (load/store units per unit).
	Streams int
	// WordBytes is the element word size.
	WordBytes int
	// UsesMultiplier marks ops with a scalar multiply (scale, triad).
	UsesMultiplier bool
	// Replicated marks SIMD/CU-style replication (control logic cloned),
	// which costs more than pure datapath widening.
	ReplicatedLanes int
}

// Validate reports shape errors.
func (s Shape) Validate() error {
	switch {
	case s.LanesPerUnit < 1:
		return fmt.Errorf("fabric: lanes per unit %d must be >= 1", s.LanesPerUnit)
	case s.Units < 1:
		return fmt.Errorf("fabric: units %d must be >= 1", s.Units)
	case s.Streams < 1:
		return fmt.Errorf("fabric: streams %d must be >= 1", s.Streams)
	case s.WordBytes < 1:
		return fmt.Errorf("fabric: word bytes %d must be >= 1", s.WordBytes)
	case s.ReplicatedLanes < 0 || s.ReplicatedLanes > s.LanesPerUnit:
		return fmt.Errorf("fabric: replicated lanes %d out of [0,%d]", s.ReplicatedLanes, s.LanesPerUnit)
	}
	return nil
}

// CostModel holds a toolchain's synthesis cost parameters. Device
// back-ends embed one with constants calibrated to their toolchain
// generation (AOCL 15.1 on Stratix V runs much faster pipelines than
// SDAccel 2015.1 on Virtex-7).
type CostModel struct {
	BaseFmaxMHz float64
	MinFmaxMHz  float64
	// WidthPenalty is the fractional fmax loss per doubling of the
	// per-unit datapath width.
	WidthPenalty float64
	// ReplPenalty is the fractional fmax loss per doubling of total
	// replication (units and SIMD lanes), on top of WidthPenalty.
	ReplPenalty float64

	BasePipelineDepth int
	DepthPerLaneLog2  int

	// Resource costs.
	BaseUnit      Resources // control, iteration logic per compute unit
	PerLane       Resources // pure datapath widening per word lane
	PerReplLane   Resources // extra cost when a lane is replicated (SIMD)
	PerStream     Resources // LSU per array stream (per unit)
	MultiplierDSP int       // DSPs per multiplying lane
}

// Synthesis is the outcome of compiling a shape.
type Synthesis struct {
	FmaxMHz float64
	Depth   int // pipeline depth in stages
	Res     Resources
}

// Synthesize estimates timing closure and resources for a shape.
func (c CostModel) Synthesize(s Shape) (Synthesis, error) {
	if err := s.Validate(); err != nil {
		return Synthesis{}, err
	}
	widthLog := math.Log2(float64(s.LanesPerUnit))
	replLog := math.Log2(float64(s.Units))
	if s.ReplicatedLanes > 1 {
		replLog += math.Log2(float64(s.ReplicatedLanes))
	}
	fmax := c.BaseFmaxMHz * (1 - c.WidthPenalty*widthLog) * (1 - c.ReplPenalty*replLog)
	if fmax < c.MinFmaxMHz {
		fmax = c.MinFmaxMHz
	}

	depth := c.BasePipelineDepth + c.DepthPerLaneLog2*int(widthLog)

	// Every lane pays the datapath cost; replicated lanes (SIMD) also pay
	// the control-replication cost, which is why SIMD is dearer than pure
	// vectorization at equal nominal parallelism.
	perUnit := c.BaseUnit.
		Add(c.PerLane.Scale(s.LanesPerUnit)).
		Add(c.PerReplLane.Scale(s.ReplicatedLanes)).
		Add(c.PerStream.Scale(s.Streams))
	if s.UsesMultiplier {
		perUnit.DSP += c.MultiplierDSP * s.LanesPerUnit * s.WordBytes / 4
	}
	res := perUnit.Scale(s.Units)
	return Synthesis{FmaxMHz: fmax, Depth: depth, Res: res}, nil
}

// IssueGBps returns the raw issue bandwidth of the synthesized pipelines
// for a shape: words issued per cycle per stream across all units, times
// word size, times fmax. The memory system decides what fraction is
// sustainable.
func (s Synthesis) IssueGBps(shape Shape) float64 {
	bytesPerCycle := float64(shape.LanesPerUnit*shape.WordBytes) *
		float64(shape.Streams) * float64(shape.Units)
	return bytesPerCycle * s.FmaxMHz * 1e6 / 1e9
}

// DrainSeconds is the pipeline-drain cost paid once per loop segment: a
// nested loop with R outer iterations drains R times.
func (s Synthesis) DrainSeconds(segments int64) float64 {
	if segments <= 0 || s.FmaxMHz <= 0 {
		return 0
	}
	return float64(segments) * float64(s.Depth) / (s.FmaxMHz * 1e6)
}
