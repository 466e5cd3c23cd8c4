// Package cl is an OpenCL-flavoured host runtime over the simulated
// devices: contexts, buffers, programs, kernels, and in-order
// command queues with profiling events.
//
// The benchmark core is written against this API the same way MP-STREAM
// is written against OpenCL. Execution is split in two:
//
//   - functionally, kernels really compute (a(i) = b(i) + q*c(i)), so
//     results are verified the way STREAM verifies its checksums. Every
//     benchmark array is uniform (STREAM initializes each one to a
//     constant and every kernel writes a(i) = f(b(i), c(i))), so one
//     element decides the whole array: a functional buffer keeps its
//     logical size for timing and argument checks but backs it with a
//     single element, and kernels, fills and transfers compute on that
//     element;
//   - temporally, each command advances the queue's virtual clock by the
//     duration the device model predicts, and events expose the
//     start/end times CL_QUEUE_PROFILING_ENABLE would.
//
// Contexts can be switched to timing-only mode (Functional=false), in
// which buffers hold no data and kernels do not execute.
package cl

import (
	"fmt"

	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
)

// Context owns buffers and programs for one device.
type Context struct {
	dev device.Device
	// Functional controls whether buffers hold their (one-element)
	// data and kernels really execute. Timing is identical either way.
	Functional bool
}

// CreateContext makes a functional context for dev.
func CreateContext(dev device.Device) *Context {
	return &Context{dev: dev, Functional: true}
}

// Buffer is a device-resident uniform array: elems elements that all
// hold the same value.
type Buffer struct {
	ctx   *Context
	dt    kernel.DataType
	elems int // logical length: sets transfer timing and SetArgs checks
	data  any // one-element []int32 or []float64 when functional
}

// CreateBuffer creates a device buffer of elems elements. A functional
// buffer allocates one element, the value every element holds.
func (c *Context) CreateBuffer(dt kernel.DataType, elems int) (*Buffer, error) {
	if elems <= 0 {
		return nil, fmt.Errorf("cl: buffer size %d must be positive", elems)
	}
	b := &Buffer{ctx: c, dt: dt, elems: elems}
	if c.Functional {
		switch dt {
		case kernel.Int32:
			b.data = make([]int32, 1)
		case kernel.Float64:
			b.data = make([]float64, 1)
		default:
			return nil, fmt.Errorf("cl: unsupported data type %v", dt)
		}
	}
	return b, nil
}

// Bytes returns the buffer size in bytes.
func (b *Buffer) Bytes() int64 { return int64(b.elems) * int64(b.dt.Bytes()) }

// Type returns the element type.
func (b *Buffer) Type() kernel.DataType { return b.dt }

// Data exposes the one-element backing slice ([]int32 or []float64),
// the value of every element; nil in timing-only contexts.
func (b *Buffer) Data() any { return b.data }

// Int32s returns the one-element backing slice of an int buffer, or nil.
func (b *Buffer) Int32s() []int32 {
	s, _ := b.data.([]int32)
	return s
}

// Float64s returns the one-element backing slice of a double buffer, or
// nil.
func (b *Buffer) Float64s() []float64 {
	s, _ := b.data.([]float64)
	return s
}

// Fill sets every element to v (host-side initialization, not timed).
func (b *Buffer) Fill(v float64) {
	switch d := b.data.(type) {
	case []int32:
		iv := int32(v)
		for i := range d {
			d[i] = iv
		}
	case []float64:
		for i := range d {
			d[i] = v
		}
	}
}

// Program compiles kernels for the context's device.
type Program struct {
	ctx *Context
}

// CreateProgram returns a program builder for the context.
func (c *Context) CreateProgram() *Program { return &Program{ctx: c} }

// Kernel is a compiled kernel with bound arguments.
type Kernel struct {
	ctx      *Context
	spec     kernel.Kernel
	compiled device.Compiled

	dst, b, c *Buffer
	q         float64
}

// BuildKernel compiles spec for the device (the clBuildProgram analogue,
// including FPGA synthesis for FPGA targets).
func (p *Program) BuildKernel(spec kernel.Kernel) (*Kernel, error) {
	compiled, err := p.ctx.dev.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("cl: build %s on %s: %w", spec.Name(), p.ctx.dev.Info().ID, err)
	}
	return &Kernel{ctx: p.ctx, spec: spec, compiled: compiled}, nil
}

// Compiled exposes the device plan (resources, fmax).
func (k *Kernel) Compiled() device.Compiled { return k.compiled }

// SetArgs binds the destination and source buffers plus the scalar q.
// c must be nil for one-input operations.
func (k *Kernel) SetArgs(dst, b, c *Buffer, q float64) error {
	if dst == nil || b == nil {
		return fmt.Errorf("cl: %s needs dst and b", k.spec.Name())
	}
	needC := k.spec.Op.InputStreams() == 2
	if needC && c == nil {
		return fmt.Errorf("cl: %s needs a second input", k.spec.Name())
	}
	if !needC && c != nil {
		return fmt.Errorf("cl: %s takes no second input", k.spec.Name())
	}
	bufs := []*Buffer{dst, b}
	if c != nil {
		bufs = append(bufs, c)
	}
	for _, buf := range bufs {
		if buf.dt != k.spec.Type {
			return fmt.Errorf("cl: buffer type %v does not match kernel type %v", buf.dt, k.spec.Type)
		}
		if buf.elems != dst.elems {
			return fmt.Errorf("cl: buffer sizes differ: %d vs %d", buf.elems, dst.elems)
		}
	}
	k.dst, k.b, k.c, k.q = dst, b, c, q
	return nil
}

// Event reports the profiled interval of one command, in seconds of the
// queue's virtual time.
type Event struct {
	Kind  string
	Start float64
	End   float64
}

// CommandQueue is an in-order queue with a virtual clock: seconds since
// the queue was created.
type CommandQueue struct {
	ctx *Context
	now float64
}

// CreateCommandQueue makes an empty in-order queue.
func (c *Context) CreateCommandQueue() *CommandQueue {
	return &CommandQueue{ctx: c}
}

// Now returns the queue's virtual time.
func (q *CommandQueue) Now() float64 { return q.now }

// advance appends a command of the given duration, returning its event.
func (q *CommandQueue) advance(kind string, seconds float64) *Event {
	ev := &Event{Kind: kind, Start: q.now, End: q.now + seconds}
	q.now = ev.End
	return ev
}

// EnqueueWriteBuffer transfers host data into a device buffer over the
// device link (clEnqueueWriteBuffer). The transfer is timed at the
// buffer's logical size; host is the array's one-element form, the
// same type as the buffer's Data.
func (q *CommandQueue) EnqueueWriteBuffer(dst *Buffer, host any) (*Event, error) {
	if q.ctx.Functional && host != nil {
		if err := copyInto(dst.data, host); err != nil {
			return nil, err
		}
	}
	sec := q.ctx.dev.Link().TransferSeconds(uint64(dst.Bytes()))
	return q.advance("write-buffer", sec), nil
}

// EnqueueReadBuffer transfers a device buffer back to host memory: into
// host's single element, timed at the buffer's logical size.
func (q *CommandQueue) EnqueueReadBuffer(src *Buffer, host any) (*Event, error) {
	if q.ctx.Functional && host != nil {
		if err := copyInto(host, src.data); err != nil {
			return nil, err
		}
	}
	sec := q.ctx.dev.Link().TransferSeconds(uint64(src.Bytes()))
	return q.advance("read-buffer", sec), nil
}

// copyInto copies one one-element slice into another of the same type.
func copyInto(dst, src any) error {
	switch d := dst.(type) {
	case []int32:
		s, ok := src.([]int32)
		if !ok || len(s) != len(d) {
			return fmt.Errorf("cl: host/device type or size mismatch")
		}
		copy(d, s)
	case []float64:
		s, ok := src.([]float64)
		if !ok || len(s) != len(d) {
			return fmt.Errorf("cl: host/device type or size mismatch")
		}
		copy(d, s)
	default:
		return fmt.Errorf("cl: unsupported transfer type %T", dst)
	}
	return nil
}

// EnqueueKernel launches the kernel over its bound buffers with the given
// access pattern (clEnqueueNDRangeKernel; for single work-item kernels
// the global size is 1 and the loop runs on the device).
func (q *CommandQueue) EnqueueKernel(k *Kernel, pattern mem.Pattern) (*Event, error) {
	if k.dst == nil {
		return nil, fmt.Errorf("cl: %s has unbound arguments", k.spec.Name())
	}
	exec := device.Exec{ArrayBytes: k.dst.Bytes(), Pattern: pattern}
	sec, err := k.compiled.Seconds(exec)
	if err != nil {
		return nil, fmt.Errorf("cl: enqueue %s: %w", k.spec.Name(), err)
	}
	sec += q.ctx.dev.LaunchOverheadSeconds()

	if q.ctx.Functional {
		if err := k.apply(); err != nil {
			return nil, fmt.Errorf("cl: execute %s: %w", k.spec.Name(), err)
		}
	}
	return q.advance("kernel:"+k.spec.Op.String(), sec), nil
}

// apply executes the kernel functionally over its bound buffers' single
// elements, dispatching to the monomorphic kernel paths when the buffers
// carry matching concrete types (they always do for well-formed
// bindings; the `any`-typed kernel.Apply remains as the
// mismatch-diagnosing fallback).
func (k *Kernel) apply() error {
	if d := k.dst.Int32s(); d != nil {
		b := k.b.Int32s()
		var c []int32
		cOK := k.c == nil
		if !cOK {
			c = k.c.Int32s()
			cOK = c != nil
		}
		if b != nil && cOK {
			return kernel.ApplyInt32(k.spec.Op, k.q, d, b, c)
		}
	} else if d := k.dst.Float64s(); d != nil {
		b := k.b.Float64s()
		var c []float64
		cOK := k.c == nil
		if !cOK {
			c = k.c.Float64s()
			cOK = c != nil
		}
		if b != nil && cOK {
			return kernel.ApplyFloat64(k.spec.Op, k.q, d, b, c)
		}
	}
	var cdata any
	if k.c != nil {
		cdata = k.c.data
	}
	return kernel.Apply(k.spec.Op, k.q, k.dst.data, k.b.data, cdata)
}

// Finish returns the queue's virtual time once all commands complete (the
// queue is in-order and synchronous, so this is simply Now).
func (q *CommandQueue) Finish() float64 { return q.now }
