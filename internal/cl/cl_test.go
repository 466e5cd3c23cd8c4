package cl

import (
	"testing"

	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
)

func gpuContext(t *testing.T) *Context {
	t.Helper()
	d, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	return CreateContext(d)
}

func TestBufferCreation(t *testing.T) {
	ctx := gpuContext(t)
	b, err := ctx.CreateBuffer(kernel.Int32, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if b.elems != 1024 || b.Bytes() != 4096 || b.Type() != kernel.Int32 {
		t.Errorf("buffer metadata wrong: %d elems %d bytes", b.elems, b.Bytes())
	}
	if len(b.Int32s()) != 1 {
		t.Errorf("functional buffer backs its uniform array with %d elements, want 1", len(b.Int32s()))
	}
	// The logical size sets timing only: a 512 MiB array still holds one
	// element.
	big, err := ctx.CreateBuffer(kernel.Float64, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if big.Bytes() != 512<<20 || len(big.Float64s()) != 1 {
		t.Errorf("big buffer: %d bytes, %d backing elements; want %d and 1", big.Bytes(), len(big.Float64s()), 512<<20)
	}
	if b.Float64s() != nil {
		t.Error("int buffer must not expose float data")
	}
	if _, err := ctx.CreateBuffer(kernel.Int32, 0); err == nil {
		t.Error("zero-size buffer accepted")
	}
}

func TestTimingOnlyBuffers(t *testing.T) {
	ctx := gpuContext(t)
	ctx.Functional = false
	b, err := ctx.CreateBuffer(kernel.Float64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data() != nil {
		t.Error("timing-only buffer must not allocate")
	}
}

func TestFill(t *testing.T) {
	ctx := gpuContext(t)
	b, _ := ctx.CreateBuffer(kernel.Int32, 8)
	b.Fill(3.9) // int buffers truncate, as int32(v) does
	if got := b.Int32s(); len(got) != 1 || got[0] != 3 {
		t.Errorf("int Fill(3.9) = %v, want [3]", got)
	}
	f, _ := ctx.CreateBuffer(kernel.Float64, 8)
	f.Fill(2.5)
	if got := f.Float64s(); len(got) != 1 || got[0] != 2.5 {
		t.Errorf("float Fill(2.5) = %v, want [2.5]", got)
	}
	// A timing-only buffer has nothing to fill.
	ctx.Functional = false
	n, _ := ctx.CreateBuffer(kernel.Float64, 8)
	n.Fill(1)
	if n.Data() != nil {
		t.Error("Fill gave a timing-only buffer data")
	}
}

func TestWriteReadBuffer(t *testing.T) {
	ctx := gpuContext(t)
	q := ctx.CreateCommandQueue()
	b, _ := ctx.CreateBuffer(kernel.Int32, 1<<20)
	// The host side of a transfer is the uniform array's one element.
	ev, err := q.EnqueueWriteBuffer(b, []int32{3})
	if err != nil {
		t.Fatal(err)
	}
	want := ctx.dev.Link().TransferSeconds(4 << 20)
	if got := ev.End - ev.Start; got <= 0 || got != want {
		t.Errorf("write took %v, want the link time of the logical 4 MiB, %v", got, want)
	}
	if b.Int32s()[0] != 3 {
		t.Error("write did not copy data")
	}
	back := []int32{0}
	if _, err := q.EnqueueReadBuffer(b, back); err != nil {
		t.Fatal(err)
	}
	if back[0] != 3 {
		t.Error("read did not copy data")
	}
	if _, err := q.EnqueueWriteBuffer(b, []float64{1}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := q.EnqueueWriteBuffer(b, []int32{1, 2}); err == nil {
		t.Error("a host array that is not one element accepted")
	}
	if _, err := q.EnqueueReadBuffer(b, []int32{}); err == nil {
		t.Error("an empty host array accepted")
	}
}

func TestKernelBuildAndRun(t *testing.T) {
	ctx := gpuContext(t)
	q := ctx.CreateCommandQueue()
	prog := ctx.CreateProgram()

	k, err := prog.BuildKernel(kernel.Kernel{Op: kernel.Triad, Type: kernel.Float64, VecWidth: 1, Loop: kernel.NDRange})
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	a, _ := ctx.CreateBuffer(kernel.Float64, n)
	b, _ := ctx.CreateBuffer(kernel.Float64, n)
	c, _ := ctx.CreateBuffer(kernel.Float64, n)
	b.Fill(2)
	c.Fill(0.5)
	if err := k.SetArgs(a, b, c, 3); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueKernel(k, mem.ContiguousPattern())
	if err != nil {
		t.Fatal(err)
	}
	if ev.End-ev.Start <= 0 {
		t.Error("kernel must take time")
	}
	want := kernel.Expected(kernel.Triad, 3, 2, 0.5)
	if got := a.Float64s(); len(got) != 1 || got[0] != want {
		t.Errorf("a = %v, want [%v]", got, want)
	}
}

func TestSetArgsValidation(t *testing.T) {
	ctx := gpuContext(t)
	prog := ctx.CreateProgram()
	kCopy, err := prog.BuildKernel(kernel.Kernel{Op: kernel.Copy, VecWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	kAdd, err := prog.BuildKernel(kernel.Kernel{Op: kernel.Add, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ctx.CreateBuffer(kernel.Int32, 16)
	b, _ := ctx.CreateBuffer(kernel.Int32, 16)
	c, _ := ctx.CreateBuffer(kernel.Int32, 16)
	short, _ := ctx.CreateBuffer(kernel.Int32, 8)
	dbl, _ := ctx.CreateBuffer(kernel.Float64, 16)

	if err := kCopy.SetArgs(a, b, nil, 0); err != nil {
		t.Errorf("copy args rejected: %v", err)
	}
	if err := kCopy.SetArgs(a, b, c, 0); err == nil {
		t.Error("copy with extra input accepted")
	}
	if err := kCopy.SetArgs(nil, b, nil, 0); err == nil {
		t.Error("nil dst accepted")
	}
	if err := kAdd.SetArgs(a, b, nil, 0); err == nil {
		t.Error("add without second input accepted")
	}
	if err := kCopy.SetArgs(a, short, nil, 0); err == nil {
		t.Error("mismatched sizes accepted")
	}
	if err := kCopy.SetArgs(a, dbl, nil, 0); err == nil {
		t.Error("mismatched types accepted")
	}
}

func TestEnqueueUnboundKernel(t *testing.T) {
	ctx := gpuContext(t)
	q := ctx.CreateCommandQueue()
	k, err := ctx.CreateProgram().BuildKernel(kernel.Kernel{Op: kernel.Copy, VecWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueKernel(k, mem.ContiguousPattern()); err == nil {
		t.Error("unbound kernel accepted")
	}
}

func TestQueueTimelineInOrder(t *testing.T) {
	ctx := gpuContext(t)
	q := ctx.CreateCommandQueue()
	b, _ := ctx.CreateBuffer(kernel.Int32, 1<<20)
	ev1, err := q.EnqueueWriteBuffer(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := q.EnqueueReadBuffer(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Start != 0 {
		t.Error("first command must start at epoch")
	}
	if ev2.Start != ev1.End {
		t.Error("in-order queue: second command starts when first ends")
	}
	if q.Finish() != ev2.End {
		t.Error("Finish must return the last completion time")
	}
}

func TestBuildRejectsBadKernels(t *testing.T) {
	ctx := gpuContext(t)
	if _, err := ctx.CreateProgram().BuildKernel(kernel.Kernel{Op: kernel.Copy, VecWidth: 3}); err == nil {
		t.Error("invalid kernel built")
	}
	// FPGA fit failures surface as build errors.
	d, err := targets.ByID("aocl")
	if err != nil {
		t.Fatal(err)
	}
	fctx := CreateContext(d)
	huge := kernel.Kernel{Op: kernel.Triad, Type: kernel.Float64, VecWidth: 16,
		Loop: kernel.FlatLoop, Attrs: kernel.Attrs{Unroll: 64, NumComputeUnits: 16}}
	if _, err := fctx.CreateProgram().BuildKernel(huge); err == nil {
		t.Error("oversized FPGA design built")
	}
}

func TestTimingOnlyKernelRun(t *testing.T) {
	ctx := gpuContext(t)
	ctx.Functional = false
	q := ctx.CreateCommandQueue()
	k, err := ctx.CreateProgram().BuildKernel(kernel.Kernel{Op: kernel.Copy, VecWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ctx.CreateBuffer(kernel.Int32, 1<<20)
	b, _ := ctx.CreateBuffer(kernel.Int32, 1<<20)
	if err := k.SetArgs(a, b, nil, 0); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueKernel(k, mem.ContiguousPattern())
	if err != nil {
		t.Fatal(err)
	}
	if ev.End-ev.Start <= 0 {
		t.Error("timing-only kernel must still take time")
	}
}

// The four kernels produce STREAM-verifiable results on every target.
func TestFunctionalVerificationAllTargets(t *testing.T) {
	const q, bInit, cInit = 3.0, 2.0, 0.5
	for _, dev := range targets.All() {
		ctx := CreateContext(dev)
		queue := ctx.CreateCommandQueue()
		prog := ctx.CreateProgram()
		for _, op := range kernel.Ops() {
			spec := kernel.Kernel{Op: op, Type: kernel.Float64, VecWidth: 1, Loop: dev.Info().OptimalLoop}
			k, err := prog.BuildKernel(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", dev.Info().ID, op, err)
			}
			n := 4096
			a, _ := ctx.CreateBuffer(kernel.Float64, n)
			b, _ := ctx.CreateBuffer(kernel.Float64, n)
			var c *Buffer
			if op.InputStreams() == 2 {
				c, _ = ctx.CreateBuffer(kernel.Float64, n)
				c.Fill(cInit)
			}
			b.Fill(bInit)
			if err := k.SetArgs(a, b, c, q); err != nil {
				t.Fatal(err)
			}
			if _, err := queue.EnqueueKernel(k, mem.ContiguousPattern()); err != nil {
				t.Fatalf("%s/%s: %v", dev.Info().ID, op, err)
			}
			want := kernel.Expected(op, q, bInit, cInit)
			if got := a.Float64s(); len(got) != 1 || got[0] != want {
				t.Fatalf("%s/%s: a = %v, want [%v]", dev.Info().ID, op, got, want)
			}
		}
	}
}
