package service_test

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/runstate"
	"mpstream/internal/service"
)

// gateAfterDevice passes the first n compilations straight through and
// blocks every later one on the gate — it pins a multi-point job at a
// deterministic spot mid-flight.
type gateAfterDevice struct {
	device.Device
	seen *atomic.Int64
	n    int64
	gate <-chan struct{}
}

func (d gateAfterDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	if d.seen.Add(1) > d.n {
		<-d.gate
	}
	return d.Device.Compile(k)
}

// slowDevice delays every compilation — the deterministic way to make a
// deadline expire mid-search.
type slowDevice struct {
	device.Device
	delay time.Duration
}

func (d slowDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	time.Sleep(d.delay)
	return d.Device.Compile(k)
}

func (e *testEnv) cancelJob(t *testing.T, id string) service.View {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, e.ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	var jr service.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr.Job
}

// TestCancelRunningSweep: canceling a sweep mid-grid stops evaluation
// within one point, lands the job in canceled with stop_reason
// "canceled", and the partial exploration ranks the points evaluated
// before the stop — no more, no less. Run with -race.
func TestCancelRunningSweep(t *testing.T) {
	gate := make(chan struct{})
	seen := &atomic.Int64{}
	e := newEnv(t, service.Options{
		Workers:      1,
		SweepWorkers: 1,
		CacheEntries: -1, // keep every point a fresh compile
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			// Point 0 completes; point 1 blocks on the gate.
			return gateAfterDevice{Device: d, seen: seen, n: 1, gate: gate}, nil
		},
	})
	base := smallConfig()
	op := kernel.Copy
	req := service.SweepRequest{Target: "cpu", Base: &base, Op: &op, Async: true,
		Space: dse.Space{VecWidths: []int{1, 2, 4, 8}}}
	_, data := e.post(t, "/v1/sweep", req)
	job := decodeJob(t, data)

	// Wait until the sweep is pinned inside point 1.
	deadline := time.Now().Add(10 * time.Second)
	for seen.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached its second point")
		}
		time.Sleep(time.Millisecond)
	}
	canceled := e.cancelJob(t, job.ID)
	if canceled.Status == service.StatusDone {
		t.Fatalf("cancel landed after completion: %+v", canceled)
	}
	close(gate)

	final := e.pollJob(t, job.ID)
	if final.Status != service.StatusCanceled {
		t.Fatalf("final status %q, want canceled (error %q)", final.Status, final.Error)
	}
	if final.StopReason != runstate.Canceled {
		t.Errorf("stop_reason %q, want %q", final.StopReason, runstate.Canceled)
	}
	if final.Sweep == nil {
		t.Fatal("canceled sweep must carry its partial exploration")
	}
	got := len(final.Sweep.Ranked) + final.Sweep.Infeasible
	// Point 0 finished before the gate, point 1 was in flight when the
	// cancel landed and is allowed to finish; points 2 and 3 must not
	// have started.
	if got < 1 || got > 2 {
		t.Errorf("partial sweep has %d points, want 1 or 2 of 4", got)
	}
	if final.Progress == nil || final.Progress.Total != 4 || final.Progress.Done != got {
		t.Errorf("progress = %+v, want done=%d total=4", final.Progress, got)
	}
}

// TestCancelQueuedJob: deleting a job that has not started lands it in
// canceled immediately and it never executes.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	e := newEnv(t, service.Options{
		Workers:    1,
		QueueDepth: 2,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return gatedDevice{Device: d, gate: gate}, nil
		},
	})
	cfg := smallConfig()
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, Async: true})
	a := decodeJob(t, data)
	waitStatus(t, e, a.ID, service.StatusRunning)

	cfgB := cfg
	cfgB.VecWidth = 2
	_, data = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfgB, Async: true})
	b := decodeJob(t, data)

	canceled := e.cancelJob(t, b.ID)
	if canceled.Status != service.StatusCanceled || canceled.StopReason != runstate.Canceled {
		t.Fatalf("queued job after cancel = %+v", canceled)
	}

	close(gate)
	if final := e.pollJob(t, a.ID); final.Status != service.StatusDone {
		t.Errorf("job A = %+v", final)
	}
	// B stays canceled and never ran.
	if final := e.pollJob(t, b.ID); final.Status != service.StatusCanceled || !final.Started.IsZero() {
		t.Errorf("job B = %+v, want canceled and never started", final)
	}
	// Canceling a finished job is an idempotent no-op.
	again := e.cancelJob(t, a.ID)
	if again.Status != service.StatusDone {
		t.Errorf("cancel of done job flipped it to %q", again.Status)
	}
}

// TestCancelSingleFlightLeader: canceling the single-flight leader must
// not wedge its followers — one of them takes over the flight and every
// follower still completes. Run with -race.
func TestCancelSingleFlightLeader(t *testing.T) {
	gate := make(chan struct{})
	compiles := &atomic.Int64{}
	e := newEnv(t, service.Options{
		Workers: 4,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return countingDevice{Device: gatedDevice{Device: d, gate: gate}, compiles: compiles}, nil
		},
	})
	cfg := smallConfig()
	submit := func() string {
		_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, Async: true})
		return decodeJob(t, data).ID
	}
	leader := submit()
	waitStatus(t, e, leader, service.StatusRunning)
	// Running is not yet inside Compile, and a cancel that lands before
	// Compile costs the leader its wasted compilation. countingDevice
	// counts before gatedDevice blocks, so the first count marks the
	// leader at the gate, holding the flight.
	deadline := time.Now().Add(10 * time.Second)
	for compiles.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leader never reached Compile (compiles = %d)", compiles.Load())
		}
		runtime.Gosched()
	}
	f1, f2 := submit(), submit()
	waitStatus(t, e, f1, service.StatusRunning)
	waitStatus(t, e, f2, service.StatusRunning)

	// Cancel the leader while it is blocked inside Compile; it observes
	// the canceled context after the gate opens and hands the flight off.
	e.cancelJob(t, leader)
	close(gate)

	if v := e.pollJob(t, leader); v.Status != service.StatusCanceled {
		t.Errorf("leader = %+v, want canceled", v)
	}
	for _, id := range []string{f1, f2} {
		if v := e.pollJob(t, id); v.Status != service.StatusDone || v.Result == nil {
			t.Errorf("follower %s = status %q error %q, want done", id, v.Status, v.Error)
		}
	}
	// The canceled leader compiled once (wasted), the promoted follower
	// once; the remaining follower read the cache.
	if got := compiles.Load(); got != 2 {
		t.Errorf("compiles = %d, want 2 (canceled leader + promoted follower)", got)
	}
}

// TestCancelFollowerLeavesLeader: a follower detaching from a
// single-flight must land in canceled promptly (while the leader is
// still simulating) and must not disturb the leader or the other
// followers.
func TestCancelFollowerLeavesLeader(t *testing.T) {
	gate := make(chan struct{})
	e := newEnv(t, service.Options{
		Workers: 4,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return gatedDevice{Device: d, gate: gate}, nil
		},
	})
	cfg := smallConfig()
	submit := func() string {
		_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, Async: true})
		return decodeJob(t, data).ID
	}
	leader := submit()
	waitStatus(t, e, leader, service.StatusRunning)
	f1, f2 := submit(), submit()
	waitStatus(t, e, f1, service.StatusRunning)
	waitStatus(t, e, f2, service.StatusRunning)

	// The follower detaches while the leader is still gated: it must not
	// wait for the leader to finish.
	e.cancelJob(t, f1)
	if v := e.pollJob(t, f1); v.Status != service.StatusCanceled {
		t.Fatalf("canceled follower = %+v", v)
	}

	close(gate)
	if v := e.pollJob(t, leader); v.Status != service.StatusDone || v.Result == nil {
		t.Errorf("leader after follower cancel = status %q error %q", v.Status, v.Error)
	}
	if v := e.pollJob(t, f2); v.Status != service.StatusDone {
		t.Errorf("surviving follower = status %q", v.Status)
	}
}

// TestDeadlineOptimizePartial: a deadline-expired optimize lands in
// canceled with stop_reason "deadline" and still reports the best point
// found before the clock ran out.
func TestDeadlineOptimizePartial(t *testing.T) {
	e := newEnv(t, service.Options{
		Workers: 1,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return slowDevice{Device: d, delay: 25 * time.Millisecond}, nil
		},
	})
	base := smallConfig()
	op := kernel.Copy
	req := service.OptimizeRequest{
		Target: "cpu", Base: &base, Op: &op,
		Space:     dse.Space{VecWidths: []int{1, 2, 4, 8, 16}, Unrolls: []int{1, 2, 4, 8}},
		Strategy:  "exhaustive",
		TimeoutMS: 250,
	}
	_, data := e.post(t, "/v1/optimize", req)
	job := decodeJob(t, data)
	if job.Status != service.StatusCanceled {
		t.Fatalf("deadline job = status %q error %q, want canceled", job.Status, job.Error)
	}
	if job.StopReason != runstate.Deadline {
		t.Errorf("stop_reason %q, want %q", job.StopReason, runstate.Deadline)
	}
	if job.TimeoutMS != 250 {
		t.Errorf("timeout_ms echoed as %d", job.TimeoutMS)
	}
	if job.Optimize == nil {
		t.Fatal("deadline-expired optimize must carry its partial result")
	}
	if job.Optimize.Stopped != runstate.Deadline {
		t.Errorf("optimize stopped tag %q", job.Optimize.Stopped)
	}
	// At 25 ms per evaluation and a 250 ms budget, at least one and far
	// fewer than all 20 evaluations completed.
	if n := job.Optimize.Evaluations; n < 1 || n >= 20 {
		t.Errorf("evaluations = %d, want mid-search stop", n)
	}
	if job.Optimize.Best == nil || job.Optimize.BestGBps <= 0 {
		t.Errorf("partial search lost its best point: %+v", job.Optimize.Best)
	}
	if job.Progress == nil || job.Progress.Done != job.Optimize.Evaluations {
		t.Errorf("progress = %+v, want done == evaluations", job.Progress)
	}
}

// TestTimeoutClamp: a requested deadline beyond the server maximum is
// clamped down to it — proven by a deadline expiry that the requested
// huge timeout would never have produced.
func TestTimeoutClamp(t *testing.T) {
	e := newEnv(t, service.Options{
		Workers:    1,
		MaxTimeout: 50 * time.Millisecond,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return slowDevice{Device: d, delay: 250 * time.Millisecond}, nil
		},
	})
	cfg := smallConfig()
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, TimeoutMS: 1 << 40})
	job := decodeJob(t, data)
	if job.Status != service.StatusCanceled || job.StopReason != runstate.Deadline {
		t.Fatalf("clamped job = status %q stop_reason %q, want canceled/deadline", job.Status, job.StopReason)
	}
	if job.TimeoutMS != 50 {
		t.Errorf("timeout_ms echoed as %d, want the clamped 50", job.TimeoutMS)
	}

	// Negative timeouts are rejected outright.
	resp, _ := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, TimeoutMS: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout status %d, want 400", resp.StatusCode)
	}
}

// TestCancelSurfacePartial: canceling a surface mid-ladder keeps the
// rungs measured so far and tags the partial surface.
func TestCancelSurfacePartial(t *testing.T) {
	// A device wrapper would hide the MemorySystem interface surfaces
	// need, so this test runs the real target under a deadline short
	// enough to expire mid-ladder on the real simulator.
	e := newEnv(t, service.Options{Workers: 1, NewDevice: targets.ByID})
	req := service.SurfaceRequest{Target: "gpu", TimeoutMS: 40}
	_, data := e.post(t, "/v1/surface", req)
	job := decodeJob(t, data)
	switch job.Status {
	case service.StatusCanceled:
		if job.StopReason != runstate.Deadline {
			t.Errorf("stop_reason %q", job.StopReason)
		}
		if job.Surface == nil || job.Surface.Stopped != runstate.Deadline {
			t.Errorf("partial surface missing its stopped tag: %+v", job.Surface)
		}
		if job.Progress == nil || job.Progress.Done >= job.Progress.Total {
			t.Errorf("progress = %+v, want a partial ladder", job.Progress)
		}
	case service.StatusDone:
		// A very fast machine can finish the default ladder inside the
		// deadline; that is not a failure of the cancellation machinery.
		t.Log("surface finished inside the deadline; partial path not exercised")
	default:
		t.Fatalf("surface job = status %q error %q", job.Status, job.Error)
	}
}
