// Package kernel defines the MP-STREAM kernel IR: the four STREAM
// operations plus every tuning parameter the paper exposes — data type,
// degree of vectorization, kernel loop management, loop unrolling,
// required work-group size, and the vendor-specific attributes (AOCL
// num_simd_work_items / num_compute_units; SDAccel pipelining and memory
// port controls).
//
// A Kernel value is what device back-ends compile into an execution plan,
// what the cl runtime executes functionally, and what OpenCLSource renders
// as the equivalent OpenCL C — the same role the paper's build scripts
// play when they generate custom kernel code from command-line flags.
package kernel

import (
	"fmt"
	"strings"
)

// Op is one of the four STREAM kernels.
type Op uint8

// The four STREAM operations, as defined in the paper:
//
//	COPY:  a(i) = b(i)
//	SCALE: a(i) = q*b(i)
//	ADD:   a(i) = b(i) + c(i)      (called SUM in the paper's list)
//	TRIAD: a(i) = b(i) + q*c(i)
//
// CHASE is not a STREAM kernel: it is the serial pointer-chase latency
// probe of the bandwidth–latency surface subsystem (internal/surface).
// Each iteration reads b at the index the previous read produced, so
// exactly one memory access is in flight at a time — the kernel measures
// round-trip latency, not bandwidth. Throughput back-ends reject it at
// compile time; the surface generator drives it against the memory
// model directly.
const (
	Copy Op = iota
	Scale
	Add
	Triad
	Chase
)

// Ops lists the four STREAM operations in paper order. Chase is
// deliberately excluded: it is the latency probe, not a bandwidth
// kernel, and never part of a default benchmark run.
func Ops() []Op { return []Op{Copy, Scale, Add, Triad} }

// String names the operation.
func (o Op) String() string {
	switch o {
	case Copy:
		return "copy"
	case Scale:
		return "scale"
	case Add:
		return "add"
	case Triad:
		return "triad"
	case Chase:
		return "chase"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// InputStreams returns how many arrays the operation reads.
func (o Op) InputStreams() int {
	if o == Add || o == Triad {
		return 2
	}
	return 1
}

// Streams returns the total array streams touched (reads + the one write).
func (o Op) Streams() int { return o.InputStreams() + 1 }

// BytesMoved returns the STREAM-convention byte count for one invocation
// over arrays of arrayBytes each: (streams touched) x arrayBytes, i.e. 2x
// for copy/scale and 3x for add/triad.
func (o Op) BytesMoved(arrayBytes int64) int64 {
	return int64(o.Streams()) * arrayBytes
}

// NeedsScalar reports whether the operation uses the scalar q.
func (o Op) NeedsScalar() bool { return o == Scale || o == Triad }

// DataType is the element type of the arrays.
type DataType uint8

// Supported element types (the paper supports integer and double).
const (
	Int32 DataType = iota
	Float64
)

// DataTypes lists the supported element types.
func DataTypes() []DataType { return []DataType{Int32, Float64} }

// String names the data type with its OpenCL spelling.
func (t DataType) String() string {
	switch t {
	case Int32:
		return "int"
	case Float64:
		return "double"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(t))
	}
}

// Bytes returns the element size.
func (t DataType) Bytes() uint32 {
	switch t {
	case Float64:
		return 8
	default:
		return 4
	}
}

// LoopMode is the paper's "kernel loop management" parameter.
type LoopMode uint8

// Loop management variants.
const (
	// NDRange launches one work-item per element; the loop is implicit.
	NDRange LoopMode = iota
	// FlatLoop launches a single work-item containing one flat loop.
	FlatLoop
	// NestedLoop launches a single work-item looping over the array as a
	// 2D matrix in a nested fashion.
	NestedLoop
)

// LoopModes lists the three loop-management variants.
func LoopModes() []LoopMode { return []LoopMode{NDRange, FlatLoop, NestedLoop} }

// String names the loop mode as the figures do.
func (m LoopMode) String() string {
	switch m {
	case NDRange:
		return "ndrange"
	case FlatLoop:
		return "flat"
	case NestedLoop:
		return "nested"
	default:
		return fmt.Sprintf("LoopMode(%d)", uint8(m))
	}
}

// Attrs carries the optional kernel attributes: generic OpenCL ones plus
// the vendor-specific optimization knobs from the paper's Section III.
type Attrs struct {
	// Unroll is the opencl_unroll_hint factor; 0 or 1 means no unrolling.
	Unroll int `json:"unroll,omitempty"`
	// ReqdWorkGroupSize is the reqd_work_group_size(X,1,1) hint; 0 = unset.
	ReqdWorkGroupSize int `json:"reqd_work_group_size,omitempty"`

	// NumSIMDWorkItems is AOCL's num_simd_work_items attribute (NDRange
	// kernels only); 0 or 1 means none.
	NumSIMDWorkItems int `json:"num_simd_work_items,omitempty"`
	// NumComputeUnits is AOCL's num_compute_units attribute; 0 or 1 means
	// a single compute unit.
	NumComputeUnits int `json:"num_compute_units,omitempty"`

	// PipelineLoop is SDAccel's xcl_pipeline_loop attribute.
	PipelineLoop bool `json:"pipeline_loop,omitempty"`
	// PipelineWorkItems is SDAccel's xcl_pipeline_workitems attribute.
	PipelineWorkItems bool `json:"pipeline_workitems,omitempty"`
	// MaxMemoryPorts is SDAccel's max_memory_ports attribute: one memory
	// port per kernel argument instead of a shared port.
	MaxMemoryPorts bool `json:"max_memory_ports,omitempty"`
	// MemoryPortWidthBits is SDAccel's memory port data width; 0 = default.
	MemoryPortWidthBits int `json:"memory_port_width_bits,omitempty"`
}

// Kernel is one fully parameterized MP-STREAM kernel.
type Kernel struct {
	Op       Op
	Type     DataType
	VecWidth int // OpenCL vector width: 1, 2, 4, 8 or 16 words
	Loop     LoopMode
	Attrs    Attrs
}

// ElemBytes is the access granularity: word size times vector width.
func (k Kernel) ElemBytes() uint32 {
	return k.Type.Bytes() * uint32(k.VecWidth)
}

// Name returns a compact identifier, e.g. "triad-double-v8-flat-u4".
func (k Kernel) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s-%s-v%d-%s", k.Op, k.Type, k.VecWidth, k.Loop)
	if k.Attrs.Unroll > 1 {
		fmt.Fprintf(&b, "-u%d", k.Attrs.Unroll)
	}
	if k.Attrs.NumSIMDWorkItems > 1 {
		fmt.Fprintf(&b, "-simd%d", k.Attrs.NumSIMDWorkItems)
	}
	if k.Attrs.NumComputeUnits > 1 {
		fmt.Fprintf(&b, "-cu%d", k.Attrs.NumComputeUnits)
	}
	return b.String()
}

// Validate checks structural constraints that hold for every device;
// device back-ends impose further target-specific rules at compile time.
func (k Kernel) Validate() error {
	switch k.Op {
	case Copy, Scale, Add, Triad, Chase:
	default:
		return fmt.Errorf("kernel: unknown op %d", uint8(k.Op))
	}
	if k.Op == Chase {
		if k.VecWidth != 1 {
			return fmt.Errorf("kernel: chase is a scalar serial probe; vector width %d is meaningless", k.VecWidth)
		}
		if k.Type != Int32 {
			return fmt.Errorf("kernel: chase chains array indices and requires the int type")
		}
	}
	switch k.Type {
	case Int32, Float64:
	default:
		return fmt.Errorf("kernel: unknown data type %d", uint8(k.Type))
	}
	switch k.VecWidth {
	case 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("kernel: vector width %d not in {1,2,4,8,16}", k.VecWidth)
	}
	switch k.Loop {
	case NDRange, FlatLoop, NestedLoop:
	default:
		return fmt.Errorf("kernel: unknown loop mode %d", uint8(k.Loop))
	}
	a := k.Attrs
	if a.Unroll < 0 || a.Unroll > 64 {
		return fmt.Errorf("kernel: unroll %d out of [0,64]", a.Unroll)
	}
	if a.Unroll > 1 && k.Loop == NDRange {
		return fmt.Errorf("kernel: unroll applies to loop kernels, not ndrange")
	}
	if a.ReqdWorkGroupSize < 0 {
		return fmt.Errorf("kernel: reqd_work_group_size %d negative", a.ReqdWorkGroupSize)
	}
	if a.NumSIMDWorkItems < 0 || a.NumSIMDWorkItems > 16 {
		return fmt.Errorf("kernel: num_simd_work_items %d out of [0,16]", a.NumSIMDWorkItems)
	}
	if a.NumSIMDWorkItems > 1 && !isPow2(a.NumSIMDWorkItems) {
		return fmt.Errorf("kernel: num_simd_work_items %d must be a power of two", a.NumSIMDWorkItems)
	}
	if a.NumSIMDWorkItems > 1 && k.Loop != NDRange {
		return fmt.Errorf("kernel: num_simd_work_items requires an ndrange kernel")
	}
	if a.NumComputeUnits < 0 || a.NumComputeUnits > 16 {
		return fmt.Errorf("kernel: num_compute_units %d out of [0,16]", a.NumComputeUnits)
	}
	if w := a.MemoryPortWidthBits; w != 0 {
		switch w {
		case 32, 64, 128, 256, 512:
		default:
			return fmt.Errorf("kernel: memory port width %d not in {32,64,128,256,512}", w)
		}
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// expr renders the right-hand side of the operation for source emission.
func (k Kernel) expr(b, c string) string {
	switch k.Op {
	case Copy:
		return b
	case Scale:
		return "q * " + b
	case Add:
		return b + " + " + c
	default:
		return b + " + q * " + c
	}
}

// typeName returns the OpenCL type with vector suffix.
func (k Kernel) typeName() string {
	if k.VecWidth == 1 {
		return k.Type.String()
	}
	return fmt.Sprintf("%s%d", k.Type, k.VecWidth)
}

// OpenCLSource renders the OpenCL C a vendor toolchain would be given for
// this configuration. It exists for documentation, logging and tests: the
// simulator consumes the Kernel value itself.
func (k Kernel) OpenCLSource() string {
	if k.Op == Chase {
		// The latency probe is a single serial work-item regardless of
		// the loop-management knob: the data dependency IS the kernel.
		// The index normalization mirrors Apply exactly (idx stays in
		// [0, n), C's % can go negative), so this source is a faithful
		// reference for the functional model.
		return `__kernel void chase(__global int * restrict a, __global const int * restrict b, const int n)
{
    int idx = 0;
    for (int i = 0; i < n; i++) {
        idx = b[idx] % n;
        if (idx < 0)
            idx += n;
        a[i] = idx;
    }
}
`
	}
	var sb strings.Builder
	ty := k.typeName()

	var attrs []string
	if k.Attrs.ReqdWorkGroupSize > 0 {
		attrs = append(attrs, fmt.Sprintf("__attribute__((reqd_work_group_size(%d, 1, 1)))", k.Attrs.ReqdWorkGroupSize))
	}
	if k.Attrs.NumSIMDWorkItems > 1 {
		attrs = append(attrs, fmt.Sprintf("__attribute__((num_simd_work_items(%d)))", k.Attrs.NumSIMDWorkItems))
	}
	if k.Attrs.NumComputeUnits > 1 {
		attrs = append(attrs, fmt.Sprintf("__attribute__((num_compute_units(%d)))", k.Attrs.NumComputeUnits))
	}
	for _, a := range attrs {
		sb.WriteString(a)
		sb.WriteByte('\n')
	}

	params := []string{fmt.Sprintf("__global %s * restrict a", ty), fmt.Sprintf("__global const %s * restrict b", ty)}
	if k.Op.InputStreams() == 2 {
		params = append(params, fmt.Sprintf("__global const %s * restrict c", ty))
	}
	if k.Op.NeedsScalar() {
		params = append(params, fmt.Sprintf("const %s q", k.Type))
	}
	switch k.Loop {
	case FlatLoop, NestedLoop:
		params = append(params, "const int n")
		if k.Loop == NestedLoop {
			params = append(params, "const int nj")
		}
	}

	fmt.Fprintf(&sb, "__kernel void %s(%s)\n{\n", k.Op, strings.Join(params, ", "))
	unroll := ""
	if k.Attrs.Unroll > 1 {
		unroll = fmt.Sprintf("    __attribute__((opencl_unroll_hint(%d)))\n", k.Attrs.Unroll)
	}
	pipeline := ""
	if k.Attrs.PipelineLoop {
		pipeline = "    __attribute__((xcl_pipeline_loop))\n"
	}
	switch k.Loop {
	case NDRange:
		if k.Attrs.PipelineWorkItems {
			sb.WriteString("    __attribute__((xcl_pipeline_workitems))\n")
		}
		sb.WriteString("    int i = get_global_id(0);\n")
		fmt.Fprintf(&sb, "    a[i] = %s;\n", k.expr("b[i]", "c[i]"))
	case FlatLoop:
		sb.WriteString(pipeline)
		sb.WriteString(unroll)
		sb.WriteString("    for (int i = 0; i < n; i++)\n")
		fmt.Fprintf(&sb, "        a[i] = %s;\n", k.expr("b[i]", "c[i]"))
	case NestedLoop:
		sb.WriteString("    for (int i = 0; i < n / nj; i++)\n")
		sb.WriteString(pipeline)
		sb.WriteString(unroll)
		sb.WriteString("        for (int j = 0; j < nj; j++)\n")
		fmt.Fprintf(&sb, "            a[i*nj + j] = %s;\n", k.expr("b[i*nj + j]", "c[i*nj + j]"))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Apply executes the operation functionally: dst = op(b, c, q) elementwise.
// Slices must be typed alike and equally long; c may be nil for one-input
// ops. This is the execution the cl runtime performs so results are
// verifiable, independent of the timing models.
//
// Apply resolves the `any`-typed arguments once and delegates to the
// monomorphic ApplyInt32/ApplyFloat64 loops; callers already holding
// typed slices should call those directly.
func Apply(op Op, q float64, dst, b, c any) error {
	switch d := dst.(type) {
	case []int32:
		bb, ok := b.([]int32)
		if !ok {
			return fmt.Errorf("kernel: input b type %T does not match dst []int32", b)
		}
		var cc []int32
		if op.InputStreams() == 2 {
			cc, ok = c.([]int32)
			if !ok {
				return fmt.Errorf("kernel: input c type %T does not match dst []int32", c)
			}
		}
		return ApplyInt32(op, q, d, bb, cc)
	case []float64:
		bb, ok := b.([]float64)
		if !ok {
			return fmt.Errorf("kernel: input b type %T does not match dst []float64", b)
		}
		var cc []float64
		if op.InputStreams() == 2 {
			cc, ok = c.([]float64)
			if !ok {
				return fmt.Errorf("kernel: input c type %T does not match dst []float64", c)
			}
		}
		return ApplyFloat64(op, q, d, bb, cc)
	default:
		return fmt.Errorf("kernel: unsupported element type %T", dst)
	}
}

// ApplyInt32 is the int path of Apply over concrete slices: no interface
// boxing, one op dispatch, then a monomorphic elementwise loop. c is
// ignored for one-input ops.
func ApplyInt32(op Op, q float64, dst, b, c []int32) error {
	if op.InputStreams() == 2 && len(c) != len(dst) {
		return fmt.Errorf("kernel: length mismatch c=%d dst=%d", len(c), len(dst))
	}
	if len(b) != len(dst) {
		return fmt.Errorf("kernel: length mismatch b=%d dst=%d", len(b), len(dst))
	}
	qi := int32(q)
	switch op {
	case Copy:
		copy(dst, b)
	case Scale:
		for i := range dst {
			dst[i] = qi * b[i]
		}
	case Add:
		for i := range dst {
			dst[i] = b[i] + c[i]
		}
	case Triad:
		for i := range dst {
			dst[i] = b[i] + qi*c[i]
		}
	case Chase:
		n := int32(len(dst))
		var idx int32
		for i := range dst {
			idx = b[idx%n] % n
			if idx < 0 {
				idx += n
			}
			dst[i] = idx
		}
	default:
		return fmt.Errorf("kernel: unknown op %d", uint8(op))
	}
	return nil
}

// ApplyFloat64 is the double path of Apply over concrete slices (see
// ApplyInt32). Chase is int-only and rejected here.
func ApplyFloat64(op Op, q float64, dst, b, c []float64) error {
	if op.InputStreams() == 2 && len(c) != len(dst) {
		return fmt.Errorf("kernel: length mismatch c=%d dst=%d", len(c), len(dst))
	}
	if len(b) != len(dst) {
		return fmt.Errorf("kernel: length mismatch b=%d dst=%d", len(b), len(dst))
	}
	switch op {
	case Copy:
		copy(dst, b)
	case Scale:
		for i := range dst {
			dst[i] = q * b[i]
		}
	case Add:
		for i := range dst {
			dst[i] = b[i] + c[i]
		}
	case Triad:
		for i := range dst {
			dst[i] = b[i] + q*c[i]
		}
	case Chase:
		return fmt.Errorf("kernel: chase chains array indices and requires the int type")
	default:
		return fmt.Errorf("kernel: unknown op %d", uint8(op))
	}
	return nil
}

// Expected returns the value every element of the destination should hold
// after applying op to arrays initialized with constants bInit and cInit.
// For Chase a constant chain array makes every hop land on index bInit,
// so the destination fills with bInit — the same fixed point STREAM-style
// constant initialization gives the other kernels.
func Expected(op Op, q, bInit, cInit float64) float64 {
	switch op {
	case Copy, Chase:
		return bInit
	case Scale:
		return q * bInit
	case Add:
		return bInit + cInit
	default:
		return bInit + q*cInit
	}
}
