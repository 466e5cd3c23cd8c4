package dse

import (
	"strings"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// shortPanicWindow is shortPanicDevice's sampling window in
// transactions: base()'s 1 MiB copy is sampled.
const shortPanicWindow = 256

// shortPanicDevice samples every kernel through device.Board.Sample with
// a body that panics at the short window: at the checkpoint its one DRAM
// run takes.
type shortPanicDevice struct{ device.Board }

func newShortPanicDevice() (device.Device, error) {
	cfg := aocl.DefaultConfig()
	info := device.Info{ID: "short-panic", Kind: device.GPU, OptimalLoop: kernel.NDRange}
	return &shortPanicDevice{device.NewBoard(info, cfg.MemBytes, cfg.DRAM, cfg.PCIe, 0, shortPanicWindow, nil)}, nil
}

type shortPanicPlan struct {
	device.Plan
	dev *shortPanicDevice
}

func (d *shortPanicDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	return &shortPanicPlan{Plan: device.Plan{K: k}, dev: d}, nil
}

func (p *shortPanicPlan) Seconds(e device.Exec) (float64, error) {
	est, err := p.dev.Sample(p.K, e, p.K.ElemBytes(), func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
		if window == 0 {
			return p.dev.ServiceDRAM(src, window, c)
		}
		cp := dram.Checkpoint{At: window, Fork: func() { panic("short window failed") }}
		p.dev.MemModel().ServiceCheckpoint(src, 2*window, &cp)
		return
	})
	return est.Seconds, err
}

// A panic in a sampled point's one run, here at its short window's
// checkpoint inside the DRAM model, reaches evalOne's recover: every
// point errors, and the worker goes on to the next point on the same
// device.
func TestEvalParallelShortWindowPanic(t *testing.T) {
	cfgs := []core.Config{base(), base(), base()}
	pts := EvalParallel(newShortPanicDevice, cfgs, nil, 1)
	for i, p := range pts {
		if p.Err == nil || !strings.Contains(p.Err.Error(), "short window failed") {
			t.Errorf("point %d: err = %v, want the short window's panic", i, p.Err)
		}
	}
}
