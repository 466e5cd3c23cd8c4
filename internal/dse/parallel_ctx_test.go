package dse

import (
	"context"
	"sync/atomic"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/runstate"
)

func ctxTestConfigs(n int) []core.Config {
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfg := core.DefaultConfig()
		cfg.Ops = []kernel.Op{kernel.Copy}
		// Distinct feasible configurations: vary the array size.
		cfg.ArrayBytes = int64(i+1) << 14
		cfg.NTimes = 1
		cfgs[i] = cfg
	}
	return cfgs
}

// TestEvalParallelContextComplete: with a live context the results are
// complete and the stop tag is empty.
func TestEvalParallelContextComplete(t *testing.T) {
	cfgs := ctxTestConfigs(4)
	newDev := func() (device.Device, error) { return targets.ByID("cpu") }
	var observed atomic.Int64
	pts, stopped := EvalParallelContext(context.Background(), newDev, cfgs, nil, 2,
		func(int, Point) { observed.Add(1) })
	if stopped != "" {
		t.Fatalf("stop tag %q on a completed run", stopped)
	}
	if got := observed.Load(); got != 4 {
		t.Errorf("observer saw %d points, want 4", got)
	}
	for i, p := range pts {
		if !p.Evaluated() || p.Err != nil || p.Result == nil {
			t.Errorf("point %d = %+v", i, p)
		}
	}
}

// TestEvalParallelContextCancel: canceling mid-evaluation stops new
// points, leaves unclaimed slots as unevaluated holes, and tags the
// partial result canceled. The observer cancels after the second point,
// which is a legitimate caller move (the service's cancel can land at
// any moment).
func TestEvalParallelContextCancel(t *testing.T) {
	cfgs := ctxTestConfigs(16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	newDev := func() (device.Device, error) { return targets.ByID("cpu") }
	pts, stopped := EvalParallelContext(ctx, newDev, cfgs, nil, 1, func(int, Point) {
		if done.Add(1) == 2 {
			cancel()
		}
	})
	if stopped != runstate.Canceled {
		t.Fatalf("stop tag %q, want %q", stopped, runstate.Canceled)
	}
	evaluated := EvaluatedPoints(pts)
	// The single worker finishes the point in flight; nothing new starts
	// after the cancel.
	if len(evaluated) < 2 || len(evaluated) >= len(cfgs) {
		t.Fatalf("evaluated %d of %d points, want a strict prefix of >= 2", len(evaluated), len(cfgs))
	}
	for _, p := range evaluated {
		if p.Err != nil || p.Result == nil {
			t.Errorf("evaluated point %+v carries no result", p)
		}
	}
	holes := 0
	for _, p := range pts {
		if !p.Evaluated() {
			holes++
		}
	}
	if holes != len(cfgs)-len(evaluated) {
		t.Errorf("holes = %d, want %d", holes, len(cfgs)-len(evaluated))
	}
}

// TestEvalParallelPreCanceled: a context canceled before the call
// evaluates nothing.
func TestEvalParallelPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	newDev := func() (device.Device, error) { return targets.ByID("cpu") }
	pts, stopped := EvalParallelContext(ctx, newDev, ctxTestConfigs(4), nil, 2, nil)
	if stopped != runstate.Canceled {
		t.Fatalf("stop tag %q", stopped)
	}
	if got := len(EvaluatedPoints(pts)); got != 0 {
		t.Errorf("pre-canceled run evaluated %d points", got)
	}
}
