package kernel

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	want := map[Op]string{Copy: "copy", Scale: "scale", Add: "add", Triad: "triad"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(op), op.String(), s)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Error("unknown op formatting wrong")
	}
}

func TestOpStreams(t *testing.T) {
	cases := []struct {
		op      Op
		in, tot int
	}{
		{Copy, 1, 2}, {Scale, 1, 2}, {Add, 2, 3}, {Triad, 2, 3},
	}
	for _, c := range cases {
		if c.op.InputStreams() != c.in || c.op.Streams() != c.tot {
			t.Errorf("%v: streams = %d/%d, want %d/%d",
				c.op, c.op.InputStreams(), c.op.Streams(), c.in, c.tot)
		}
	}
}

func TestBytesMoved(t *testing.T) {
	// STREAM convention: copy/scale 2x, add/triad 3x.
	if Copy.BytesMoved(100) != 200 || Scale.BytesMoved(100) != 200 {
		t.Error("copy/scale must move 2x array bytes")
	}
	if Add.BytesMoved(100) != 300 || Triad.BytesMoved(100) != 300 {
		t.Error("add/triad must move 3x array bytes")
	}
}

func TestNeedsScalar(t *testing.T) {
	if Copy.NeedsScalar() || Add.NeedsScalar() {
		t.Error("copy/add take no scalar")
	}
	if !Scale.NeedsScalar() || !Triad.NeedsScalar() {
		t.Error("scale/triad need the scalar")
	}
}

func TestDataType(t *testing.T) {
	if Int32.Bytes() != 4 || Float64.Bytes() != 8 {
		t.Error("data type sizes wrong")
	}
	if Int32.String() != "int" || Float64.String() != "double" {
		t.Error("data type names must use OpenCL spelling")
	}
}

func TestLoopModeString(t *testing.T) {
	if NDRange.String() != "ndrange" || FlatLoop.String() != "flat" || NestedLoop.String() != "nested" {
		t.Error("loop mode names wrong")
	}
}

func TestEnumerators(t *testing.T) {
	if len(Ops()) != 4 || len(DataTypes()) != 2 || len(LoopModes()) != 3 {
		t.Error("enumerator lengths wrong")
	}
}

func TestElemBytes(t *testing.T) {
	k := Kernel{Op: Copy, VecWidth: 1}
	if k.ElemBytes() != 4 {
		t.Errorf("default elem bytes = %d, want 4", k.ElemBytes())
	}
	k.Type, k.VecWidth = Float64, 16
	if k.ElemBytes() != 128 {
		t.Errorf("double16 elem bytes = %d, want 128", k.ElemBytes())
	}
}

func TestName(t *testing.T) {
	k := Kernel{Op: Triad, Type: Float64, VecWidth: 8, Loop: FlatLoop,
		Attrs: Attrs{Unroll: 4, NumSIMDWorkItems: 1, NumComputeUnits: 2}}
	want := "triad-double-v8-flat-u4-cu2"
	if got := k.Name(); got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
}

func TestValidateDefaults(t *testing.T) {
	for _, op := range Ops() {
		if err := (Kernel{Op: op, VecWidth: 1}).Validate(); err != nil {
			t.Errorf("default kernel for %v invalid: %v", op, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := Kernel{Op: Copy, VecWidth: 1}
	cases := []struct {
		name   string
		mutate func(*Kernel)
	}{
		{"bad op", func(k *Kernel) { k.Op = Op(9) }},
		{"bad type", func(k *Kernel) { k.Type = DataType(9) }},
		{"bad vec", func(k *Kernel) { k.VecWidth = 3 }},
		{"vec zero", func(k *Kernel) { k.VecWidth = 0 }},
		{"bad loop", func(k *Kernel) { k.Loop = LoopMode(9) }},
		{"unroll range", func(k *Kernel) { k.Loop = FlatLoop; k.Attrs.Unroll = 128 }},
		{"unroll ndrange", func(k *Kernel) { k.Attrs.Unroll = 4 }},
		{"neg wg", func(k *Kernel) { k.Attrs.ReqdWorkGroupSize = -1 }},
		{"simd range", func(k *Kernel) { k.Attrs.NumSIMDWorkItems = 32 }},
		{"simd pow2", func(k *Kernel) { k.Attrs.NumSIMDWorkItems = 6 }},
		{"simd loop", func(k *Kernel) { k.Loop = FlatLoop; k.Attrs.NumSIMDWorkItems = 4 }},
		{"cu range", func(k *Kernel) { k.Attrs.NumComputeUnits = 99 }},
		{"port width", func(k *Kernel) { k.Attrs.MemoryPortWidthBits = 100 }},
	}
	for _, c := range cases {
		k := base
		c.mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: invalid kernel accepted: %+v", c.name, k)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []Kernel{
		{Op: Copy, Type: Int32, VecWidth: 16, Loop: FlatLoop, Attrs: Attrs{Unroll: 16}},
		{Op: Triad, Type: Float64, VecWidth: 4, Loop: NDRange,
			Attrs: Attrs{NumSIMDWorkItems: 8, NumComputeUnits: 4, ReqdWorkGroupSize: 256}},
		{Op: Add, Type: Int32, VecWidth: 2, Loop: NestedLoop,
			Attrs: Attrs{PipelineLoop: true, MaxMemoryPorts: true, MemoryPortWidthBits: 512}},
	}
	for _, k := range cases {
		if err := k.Validate(); err != nil {
			t.Errorf("valid kernel %s rejected: %v", k.Name(), err)
		}
	}
}

func TestOpenCLSourceNDRange(t *testing.T) {
	k := Kernel{Op: Copy, VecWidth: 1}
	src := k.OpenCLSource()
	for _, want := range []string{
		"__kernel void copy",
		"get_global_id(0)",
		"a[i] = b[i];",
		"__global int * restrict a",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("ndrange source missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "for (") {
		t.Error("ndrange source must not contain a loop")
	}
}

func TestOpenCLSourceFlat(t *testing.T) {
	k := Kernel{Op: Triad, Type: Float64, VecWidth: 4, Loop: FlatLoop, Attrs: Attrs{Unroll: 8}}
	src := k.OpenCLSource()
	for _, want := range []string{
		"__kernel void triad",
		"double4",
		"opencl_unroll_hint(8)",
		"for (int i = 0; i < n; i++)",
		"a[i] = b[i] + q * c[i];",
		"const double q",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("flat source missing %q:\n%s", want, src)
		}
	}
}

func TestOpenCLSourceNested(t *testing.T) {
	k := Kernel{Op: Copy, Type: Int32, VecWidth: 1, Loop: NestedLoop, Attrs: Attrs{PipelineLoop: true}}
	src := k.OpenCLSource()
	for _, want := range []string{
		"for (int i = 0; i < n / nj; i++)",
		"for (int j = 0; j < nj; j++)",
		"a[i*nj + j] = b[i*nj + j];",
		"xcl_pipeline_loop",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("nested source missing %q:\n%s", want, src)
		}
	}
}

func TestOpenCLSourceAttributes(t *testing.T) {
	k := Kernel{Op: Scale, Type: Int32, VecWidth: 1, Loop: NDRange,
		Attrs: Attrs{ReqdWorkGroupSize: 64, NumSIMDWorkItems: 4, NumComputeUnits: 2}}
	src := k.OpenCLSource()
	for _, want := range []string{
		"reqd_work_group_size(64, 1, 1)",
		"num_simd_work_items(4)",
		"num_compute_units(2)",
		"a[i] = q * b[i];",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("attributed source missing %q:\n%s", want, src)
		}
	}
}

func TestApplyInt32(t *testing.T) {
	b := []int32{1, 2, 3, 4}
	c := []int32{10, 20, 30, 40}
	dst := make([]int32, 4)

	if err := Apply(Copy, 0, dst, b, nil); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 3 {
		t.Errorf("copy wrong: %v", dst)
	}
	if err := Apply(Scale, 3, dst, b, nil); err != nil {
		t.Fatal(err)
	}
	if dst[3] != 12 {
		t.Errorf("scale wrong: %v", dst)
	}
	if err := Apply(Add, 0, dst, b, c); err != nil {
		t.Fatal(err)
	}
	if dst[1] != 22 {
		t.Errorf("add wrong: %v", dst)
	}
	if err := Apply(Triad, 3, dst, b, c); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 31 {
		t.Errorf("triad wrong: %v", dst)
	}
}

func TestApplyFloat64(t *testing.T) {
	b := []float64{1, 2}
	c := []float64{0.5, 0.25}
	dst := make([]float64, 2)
	if err := Apply(Triad, 3, dst, b, c); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 2.5 || dst[1] != 2.75 {
		t.Errorf("triad wrong: %v", dst)
	}
}

func TestApplyErrors(t *testing.T) {
	if err := Apply(Copy, 0, make([]int32, 2), []float64{1, 2}, nil); err == nil {
		t.Error("type mismatch must error")
	}
	if err := Apply(Copy, 0, make([]int32, 2), []int32{1}, nil); err == nil {
		t.Error("length mismatch must error")
	}
	if err := Apply(Add, 0, make([]int32, 2), []int32{1, 2}, nil); err == nil {
		t.Error("missing c for add must error")
	}
	if err := Apply(Add, 0, make([]int32, 2), []int32{1, 2}, []int32{1}); err == nil {
		t.Error("short c must error")
	}
	if err := Apply(Copy, 0, "nope", nil, nil); err == nil {
		t.Error("unsupported type must error")
	}
	if err := Apply(Op(9), 0, make([]int32, 1), make([]int32, 1), nil); err == nil {
		t.Error("unknown op must error")
	}
	if err := Apply(Add, 0, make([]float64, 2), []float64{1, 2}, []int32{1, 2}); err == nil {
		t.Error("mismatched c type must error")
	}
}

func TestExpected(t *testing.T) {
	const q, b, c = 3.0, 2.0, 5.0
	if Expected(Copy, q, b, c) != b {
		t.Error("copy expectation wrong")
	}
	if Expected(Scale, q, b, c) != q*b {
		t.Error("scale expectation wrong")
	}
	if Expected(Add, q, b, c) != b+c {
		t.Error("add expectation wrong")
	}
	if Expected(Triad, q, b, c) != b+q*c {
		t.Error("triad expectation wrong")
	}
}

// Property: Apply matches Expected when arrays hold constants.
func TestQuickApplyMatchesExpected(t *testing.T) {
	f := func(opSel uint8, rawQ, rawB, rawC int8) bool {
		op := Ops()[int(opSel)%4]
		q, bv, cv := float64(rawQ), float64(rawB), float64(rawC)
		n := 17
		b := make([]float64, n)
		c := make([]float64, n)
		dst := make([]float64, n)
		for i := range b {
			b[i], c[i] = bv, cv
		}
		if err := Apply(op, q, dst, b, c); err != nil {
			return false
		}
		want := Expected(op, q, bv, cv)
		for _, v := range dst {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every valid parameter combination renders compilable-looking
// source containing its op name and validates.
func TestQuickKernelMatrix(t *testing.T) {
	for _, op := range Ops() {
		for _, dt := range DataTypes() {
			for _, vw := range []int{1, 2, 4, 8, 16} {
				for _, lm := range LoopModes() {
					k := Kernel{Op: op, Type: dt, VecWidth: vw, Loop: lm}
					if err := k.Validate(); err != nil {
						t.Fatalf("matrix kernel %s invalid: %v", k.Name(), err)
					}
					src := k.OpenCLSource()
					if !strings.Contains(src, "__kernel void "+op.String()) {
						t.Fatalf("source for %s lacks kernel decl", k.Name())
					}
				}
			}
		}
	}
}

func TestChaseOp(t *testing.T) {
	if Chase.String() != "chase" {
		t.Errorf("String = %q", Chase.String())
	}
	if got, err := ParseOp("chase"); err != nil || got != Chase {
		t.Errorf("ParseOp(chase) = %v, %v", got, err)
	}
	if Chase.InputStreams() != 1 || Chase.Streams() != 2 {
		t.Errorf("chase streams = %d/%d, want 1/2", Chase.InputStreams(), Chase.Streams())
	}
	if Chase.NeedsScalar() {
		t.Error("chase must not need the scalar")
	}
	for _, op := range Ops() {
		if op == Chase {
			t.Error("Ops() must list only the four STREAM kernels")
		}
	}
	b, err := Chase.MarshalText()
	if err != nil || string(b) != "chase" {
		t.Errorf("MarshalText = %q, %v", b, err)
	}
}

func TestChaseValidate(t *testing.T) {
	k := Kernel{Op: Chase, Type: Int32, VecWidth: 1, Loop: FlatLoop}
	if err := k.Validate(); err != nil {
		t.Errorf("scalar int chase must validate: %v", err)
	}
	k.VecWidth = 4
	if err := k.Validate(); err == nil {
		t.Error("vectorized chase must be rejected")
	}
	k.VecWidth = 1
	k.Type = Float64
	if err := k.Validate(); err == nil {
		t.Error("double chase must be rejected")
	}
}

func TestChaseApply(t *testing.T) {
	// A constant chain array is a fixed point: every hop lands on index
	// bInit, so the destination fills with bInit — matching Expected.
	n := 16
	dst := make([]int32, n)
	chain := make([]int32, n)
	for i := range chain {
		chain[i] = 2
	}
	if err := Apply(Chase, 0, dst, chain, nil); err != nil {
		t.Fatal(err)
	}
	want := Expected(Chase, 3, 2, 5)
	for i, v := range dst {
		if float64(v) != want {
			t.Fatalf("dst[%d] = %d, want %g", i, v, want)
		}
	}
	// A genuine permutation is followed index by index.
	perm := []int32{3, 0, 1, 2}
	dst4 := make([]int32, 4)
	if err := Apply(Chase, 0, dst4, perm, nil); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int32{3, 2, 1, 0} {
		if dst4[i] != want {
			t.Errorf("perm hop %d = %d, want %d", i, dst4[i], want)
		}
	}
	// Doubles cannot hold chain indices.
	if err := Apply(Chase, 0, make([]float64, 4), make([]float64, 4), nil); err == nil {
		t.Error("chase over doubles must error")
	}
}

func TestChaseOpenCLSource(t *testing.T) {
	k := Kernel{Op: Chase, Type: Int32, VecWidth: 1}
	src := k.OpenCLSource()
	for _, want := range []string{"__kernel void chase", "idx = b[idx] % n", "idx += n", "for (int i = 0"} {
		if !strings.Contains(src, want) {
			t.Errorf("chase source missing %q:\n%s", want, src)
		}
	}
}

// The run path applies kernels to uniform arrays only (cl buffers back
// them with one element), so the elementwise loops are pinned here over
// non-uniform arrays: every op, in both types, must match a per-element
// scalar definition, including int32 truncation of q and wraparound.
func TestApplyNonUniformMatchesScalar(t *testing.T) {
	const n = 37
	q := 2.75 // truncates to 2 on the int path
	bi, ci := make([]int32, n), make([]int32, n)
	bf, cf := make([]float64, n), make([]float64, n)
	for i := range bi {
		bi[i] = int32(i*i*7919 - 50000) // mixed signs, no two alike
		ci[i] = int32(1<<30 - i*104729) // large enough that q*c wraps
		bf[i] = float64(i)*1.5 - 20
		cf[i] = 1 / float64(i+1)
	}
	scalarInt := func(op Op, i int, dst []int32) int32 {
		qi := int32(q)
		switch op {
		case Copy:
			return bi[i]
		case Scale:
			return qi * bi[i]
		case Add:
			return bi[i] + ci[i]
		case Triad:
			return bi[i] + qi*ci[i]
		default: // Chase: hop i lands on b[previous hop], folded into range
			prev := int32(0)
			if i > 0 {
				prev = dst[i-1]
			}
			idx := bi[prev%n] % n
			if idx < 0 {
				idx += n
			}
			return idx
		}
	}
	scalarFloat := func(op Op, i int) float64 {
		switch op {
		case Copy:
			return bf[i]
		case Scale:
			return q * bf[i]
		case Add:
			return bf[i] + cf[i]
		default:
			return bf[i] + q*cf[i]
		}
	}
	for _, op := range append(Ops(), Chase) {
		var in2i []int32
		var in2f []float64
		if op.InputStreams() == 2 {
			in2i, in2f = ci, cf
		}
		di := make([]int32, n)
		if err := ApplyInt32(op, q, di, bi, in2i); err != nil {
			t.Fatalf("int %v: %v", op, err)
		}
		for i := range di {
			if want := scalarInt(op, i, di); di[i] != want {
				t.Fatalf("int %v: dst[%d] = %d, want %d", op, i, di[i], want)
			}
		}
		df := make([]float64, n)
		err := ApplyFloat64(op, q, df, bf, in2f)
		if op == Chase {
			if err == nil {
				t.Error("float chase must error")
			}
			continue
		}
		if err != nil {
			t.Fatalf("float %v: %v", op, err)
		}
		for i := range df {
			if want := scalarFloat(op, i); df[i] != want {
				t.Fatalf("float %v: dst[%d] = %g, want %g", op, i, df[i], want)
			}
		}
	}
}
