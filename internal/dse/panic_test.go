package dse

import (
	"strings"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// shortPanicWindow is shortPanicDevice's sampling window in
// transactions: base()'s 1 MiB copy is sampled.
const shortPanicWindow = 256

// shortPanicDevice samples every kernel through device.Board.Sample with
// a window body that panics in the short window, which Sample runs on a
// goroutine of its own.
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
	est, err := p.dev.Sample(p.K, e, p.K.ElemBytes(), func(src mem.Source, maxTxns uint64, c *cache.Cache) sample.Measurement {
		if maxTxns == shortPanicWindow {
			panic("short window failed")
		}
		return p.dev.ServiceDRAM(src, maxTxns, c)
	})
	return est.Seconds, err
}

// A panic in the sampling window Board.Sample runs off the caller's
// goroutine still reaches evalOne's recover: every point errors, and
// the worker goes on to the next point on the same device.
func TestEvalParallelShortWindowPanic(t *testing.T) {
	cfgs := []core.Config{base(), base(), base()}
	pts := EvalParallel(newShortPanicDevice, cfgs, nil, 1)
	for i, p := range pts {
		if p.Err == nil || !strings.Contains(p.Err.Error(), "short window failed") {
			t.Errorf("point %d: err = %v, want the short window's panic", i, p.Err)
		}
	}
}
