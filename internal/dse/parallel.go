package dse

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/runstate"
)

// DeviceFactory produces a fresh device instance. Parallel evaluation
// needs one instance per worker: devices carry simulator state (caches,
// open DRAM rows) and are not safe for concurrent use. core.Run resets
// the device before every run, so per-worker reuse is deterministic and
// a worker's results are identical to a sequential evaluation.
type DeviceFactory func() (device.Device, error)

// EvalParallelContext evaluates configurations concurrently on
// independent device instances and returns the points in input order,
// so output is byte-identical to evaluating the slice sequentially.
// labels may be nil (each point then gets its ConfigLabel); otherwise it
// must be the same length as cfgs. workers <= 0 means GOMAXPROCS.
//
// A failing factory marks the points its worker claims with the error
// (retried per point); callers that must distinguish infrastructure
// failure from infeasible designs should wrap newDev and inspect its
// error, as the service layer does.
//
// ctx cancels the evaluation between points: no new point starts after
// ctx ends, points already in flight finish, and the returned stop tag
// (runstate.Canceled or runstate.Deadline, "" for a complete run) marks
// the result as partial. Unevaluated grid slots are left as zero
// Points — filter with Point.Evaluated. onPoint — when non-nil — sees
// every finished point as it lands; it is called concurrently from the
// worker goroutines and must be safe for that.
func EvalParallelContext(ctx context.Context, newDev DeviceFactory, cfgs []core.Config, labels []string, workers int, onPoint func(i int, p Point)) ([]Point, string) {
	if ctx == nil {
		ctx = context.Background()
	}
	pts := make([]Point, len(cfgs))
	if len(cfgs) == 0 {
		return pts, runstate.FromContext(ctx)
	}
	label := func(i int) string {
		if labels != nil {
			return labels[i]
		}
		return ConfigLabel(cfgs[i])
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	// evalOne converts a panicking evaluation into an errored point: a
	// hostile grid point must not kill the process hosting the sweep
	// (the service runs these on long-lived workers).
	evalOne := func(dev device.Device, i int) (p Point) {
		defer func() {
			if r := recover(); r != nil {
				p = Point{Label: label(i), Config: cfgs[i], Err: fmt.Errorf("dse: evaluation panicked: %v", r)}
			}
		}()
		return run(dev, cfgs[i], label(i))
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dev device.Device
			for i := range idx {
				// Claimed but not yet started: a canceled run leaves the
				// point as an unevaluated hole rather than half-truth.
				if ctx.Err() != nil {
					continue
				}
				if dev == nil {
					// Retry the factory per claimed point so a transient
					// failure marks as few points as possible; persistent
					// failures surface as per-point errors rather than
					// stalling the sweep.
					var err error
					if dev, err = newDev(); err != nil {
						dev = nil
						pts[i] = Point{Label: label(i), Config: cfgs[i], Err: err}
						if onPoint != nil {
							onPoint(i, pts[i])
						}
						continue
					}
				}
				_, sp := obs.StartSpan(ctx, "sweep.point", "label", label(i))
				pts[i] = evalOne(dev, i)
				if pts[i].Err != nil {
					sp.SetAttr("error", pts[i].Err.Error())
				}
				sp.End()
				if onPoint != nil {
					onPoint(i, pts[i])
				}
			}
		}()
	}
dispatch:
	for i := range cfgs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return pts, runstate.FromContext(ctx)
}

// ExploreParallel is Explore with the grid fanned out over GOMAXPROCS
// workers. It returns byte-identical results to Explore for the same
// base and space: points are produced in grid order before ranking, the
// simulator is deterministic, and Rank's stable sort breaks ties the
// same way.
func ExploreParallel(newDev DeviceFactory, base core.Config, space Space, op kernel.Op) Exploration {
	base.Ops = []kernel.Op{op}
	pts, _ := EvalParallelContext(context.Background(), newDev, space.Configs(base), nil, 0, nil)
	return Rank(pts, op)
}
