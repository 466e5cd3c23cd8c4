package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/runstate"
	"mpstream/internal/service"
	"mpstream/internal/shard"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// fleetEnv is a coordinator server plus worker servers registered on
// its in-memory fleet — the whole cluster in one process, over real
// HTTP.
type fleetEnv struct {
	*testEnv // the coordinator
	coord    *cluster.Coordinator
	workers  []*testEnv
}

// newFleetEnv builds a coordinator with n workers. workerOpts — when
// non-nil — customizes worker i's service options (e.g. a blocking
// device factory); coordinator and workers otherwise count compiles
// independently, so tests can prove where simulations ran.
func newFleetEnv(t *testing.T, n int, workerOpts func(i int) service.Options) *fleetEnv {
	return newFleetEnvOpts(t, n, nil, workerOpts)
}

// newFleetEnvOpts is newFleetEnv with a hook to tune the coordinator's
// scheduler options (shard unit, speculation) before it is built.
func newFleetEnvOpts(t *testing.T, n int, copts func(*cluster.Options), workerOpts func(i int) service.Options) *fleetEnv {
	t.Helper()
	opts := cluster.Options{
		// Tests register workers once and never heartbeat; a generous TTL
		// keeps them alive for the whole test even under -race. Liveness
		// transitions are driven explicitly (connection kills mark
		// workers down).
		HeartbeatTTL: 5 * time.Minute,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		// Speculation is timing-triggered; tests that don't opt in keep
		// it off so scheduling stays deterministic under -race load.
		DisableSpeculation: true,
	}
	if copts != nil {
		copts(&opts)
	}
	coord := cluster.New(opts)
	t.Cleanup(coord.Close)
	fe := &fleetEnv{coord: coord}
	for i := 0; i < n; i++ {
		var opts service.Options
		if workerOpts != nil {
			opts = workerOpts(i)
		}
		if opts.Origin == "" {
			opts.Origin = fmt.Sprintf("w%d", i)
		}
		we := newEnv(t, opts)
		fe.workers = append(fe.workers, we)
		coord.Register(cluster.WorkerInfo{
			ID:       fmt.Sprintf("w%d", i),
			Addr:     we.ts.URL,
			Targets:  targets.IDs(),
			Capacity: 2,
		})
	}
	fe.testEnv = newEnv(t, service.Options{Cluster: coord, Origin: "coordinator"})
	return fe
}

// workerCompiles sums kernel compilations across the fleet's workers.
func (fe *fleetEnv) workerCompiles() int64 {
	var n int64
	for _, w := range fe.workers {
		n += w.compiles.Load()
	}
	return n
}

// workerJobs fetches one worker's job list.
func workerJobs(t *testing.T, w *testEnv) []service.View {
	t.Helper()
	_, data := w.get(t, "/v1/jobs")
	var jr service.JobsResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("decode jobs: %v\n%s", err, data)
	}
	return jr.Jobs
}

// sweepReq is the canonical test sweep: 16 points on cpu.
func sweepReq() service.SweepRequest {
	base := smallConfig()
	op := kernel.Copy
	return service.SweepRequest{
		Target: "cpu",
		Base:   &base,
		Op:     &op,
		Space: dse.Space{
			VecWidths: []int{1, 2, 4, 8},
			Unrolls:   []int{1, 2},
			Types:     []kernel.DataType{kernel.Int32, kernel.Float64},
		},
	}
}

// singleNodeSweep runs the reference sweep on a standalone server and
// returns the canonical JSON of its exploration.
func singleNodeSweep(t *testing.T, req service.SweepRequest) []byte {
	t.Helper()
	e := newEnv(t, service.Options{})
	resp, data := e.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("single-node sweep job = %+v", job)
	}
	b, err := json.Marshal(job.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSweepByteIdentical: a sweep sharded across two in-process
// workers returns a ranking byte-identical (order and content) to a
// single-node sweep of the same request, with every simulation running
// on the workers and none on the coordinator. Run with -race.
func TestFleetSweepByteIdentical(t *testing.T) {
	req := sweepReq()
	want := singleNodeSweep(t, req)

	fe := newFleetEnv(t, 2, nil)
	resp, data := fe.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("fleet sweep job = %+v", job)
	}
	got, err := json.Marshal(job.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet sweep diverges from single node:\n got %s\nwant %s", got, want)
	}
	if n := fe.compiles.Load(); n != 0 {
		t.Errorf("coordinator compiled %d kernels, want 0 (work belongs on the fleet)", n)
	}
	if n := fe.workerCompiles(); n == 0 {
		t.Error("workers compiled nothing — the sweep did not distribute")
	}
	// Both workers took shards (locality + load balance over equal-
	// capacity workers, 4 shards).
	for i, w := range fe.workers {
		if len(workerJobs(t, w)) == 0 {
			t.Errorf("worker %d executed no shard jobs", i)
		}
	}
	// A done fleet job reads complete progress.
	if job.Progress == nil || job.Progress.Done != job.Progress.Total || job.Progress.Total != req.Space.Size() {
		t.Errorf("fleet progress = %+v, want done == total == %d", job.Progress, req.Space.Size())
	}
}

// signalGateDevice signals on every compilation, then blocks until the
// gate closes — it pins a worker's shard mid-point so the test can
// kill the worker at a deterministic moment.
type signalGateDevice struct {
	device.Device
	signal func()
	gate   <-chan struct{}
}

func (d signalGateDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	d.signal()
	<-d.gate
	return d.Device.Compile(k)
}

// TestFleetSweepWorkerKilledMidJob: killing a worker mid-shard loses
// its connections; the coordinator marks it down, retries the shards
// on the surviving worker, and the merged result is still
// byte-identical to a single node's. Run with -race.
func TestFleetSweepWorkerKilledMidJob(t *testing.T) {
	req := sweepReq()
	want := singleNodeSweep(t, req)

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	started := make(chan struct{})
	var startOnce sync.Once

	fe := newFleetEnv(t, 2, func(i int) service.Options {
		if i != 1 {
			return service.Options{}
		}
		// Worker 1 blocks inside its first grid point.
		return service.Options{NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return signalGateDevice{
				Device: d,
				signal: func() { startOnce.Do(func() { close(started) }) },
				gate:   gate,
			}, nil
		}}
	})

	resp, data := fe.post(t, "/v1/sweep", service.SweepRequest{
		Target: req.Target, Base: req.Base, Op: req.Op, Space: req.Space, Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker 1 never started a shard")
	}
	// Kill worker 1 the way a crashed machine looks from outside:
	// listener first (no new connections), then every established
	// connection (in-flight submissions and event streams break). The
	// service behind it stays up — its blocked job finishes once the
	// gate opens — but the coordinator must not need it anymore.
	fe.workers[1].ts.Listener.Close()
	fe.workers[1].ts.CloseClientConnections()

	final := fe.pollJob(t, job.ID)
	openGate()
	if final.Status != service.StatusDone || final.Sweep == nil {
		t.Fatalf("fleet sweep after worker kill = %s (error %q)", final.Status, final.Error)
	}
	got, err := json.Marshal(final.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-retry fleet sweep diverges from single node:\n got %s\nwant %s", got, want)
	}

	// The merged event stream must show the failover: at least one
	// failed shard attempt followed by a done shard on the survivor.
	resp2, events := fe.get(t, "/v1/jobs/"+job.ID+"/events")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp2.StatusCode)
	}
	failed, done := 0, 0
	for _, line := range bytes.Split(events, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event %s: %v", line, err)
		}
		if ev.Type == service.EventShard && ev.Shard != nil {
			switch ev.Shard.State {
			case "failed":
				failed++
			case "done":
				done++
			}
		}
	}
	if failed == 0 {
		t.Error("no failed shard attempt in the merged event stream")
	}
	if done == 0 {
		t.Error("no done shard in the merged event stream")
	}
}

// TestFleetCancelPropagates: DELETE on a fleet job cancels every
// worker-side shard job within one evaluation unit. Run with -race.
func TestFleetCancelPropagates(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	var startedN atomic.Int64

	fe := newFleetEnv(t, 2, func(int) service.Options {
		return service.Options{NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return signalGateDevice{Device: d, signal: func() { startedN.Add(1) }, gate: gate}, nil
		}}
	})

	req := sweepReq()
	resp, data := fe.post(t, "/v1/sweep", service.SweepRequest{
		Target: req.Target, Base: req.Base, Op: req.Op, Space: req.Space, Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)

	// Wait until work is pinned mid-point and every worker holds at
	// least one shard job, so the later per-worker assertions are not
	// racing the scheduler.
	deadline := time.Now().Add(10 * time.Second)
	for {
		allHaveJobs := true
		for _, w := range fe.workers {
			if len(workerJobs(t, w)) == 0 {
				allHaveJobs = false
			}
		}
		if startedN.Load() >= 2 && allHaveJobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never started on both workers")
		}
		time.Sleep(time.Millisecond)
	}

	canceled := fe.cancelJob(t, job.ID)
	if canceled.Status == service.StatusDone {
		t.Fatalf("cancel landed after completion: %+v", canceled)
	}
	// Open the gate only once every worker has answered the fleet's
	// cancel: the pinned points finish, and every worker job must stop
	// at that evaluation-unit boundary instead of running its shard to
	// completion. No shard can pass its gated point before the fan-out
	// lands.
	deadline = time.Now().Add(10 * time.Second)
	for _, w := range fe.workers {
		for w.deletes.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the cancel never fanned out to every worker")
			}
			time.Sleep(time.Millisecond)
		}
	}
	openGate()

	final := fe.pollJob(t, job.ID)
	if final.Status != service.StatusCanceled {
		t.Fatalf("fleet job status %q, want canceled (error %q)", final.Status, final.Error)
	}
	if final.StopReason != runstate.Canceled {
		t.Errorf("stop_reason %q, want %q", final.StopReason, runstate.Canceled)
	}

	// Every worker-side shard job reached a terminal state, and at
	// least one was canceled mid-shard (the fan-out, not shard
	// completion, ended it).
	sawCanceled := false
	for i, w := range fe.workers {
		jobs := workerJobs(t, w)
		if len(jobs) == 0 {
			t.Errorf("worker %d executed no shard jobs", i)
		}
		wDeadline := time.Now().Add(10 * time.Second)
		for _, wj := range jobs {
			for {
				_, jd := w.get(t, "/v1/jobs/"+wj.ID)
				v := decodeJob(t, jd)
				if v.Status == service.StatusDone || v.Status == service.StatusFailed || v.Status == service.StatusCanceled {
					if v.Status == service.StatusCanceled {
						sawCanceled = true
					}
					break
				}
				if time.Now().After(wDeadline) {
					t.Fatalf("worker %d job %s stuck in %s after fleet cancel", i, wj.ID, v.Status)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	if !sawCanceled {
		t.Error("no worker job was canceled — the fan-out never landed")
	}
}

// TestFleetSurfaceMatchesSingleNode: a curve-sharded fleet surface is
// byte-identical to a single-node measurement, and the shards really
// ran on the workers.
func TestFleetSurfaceMatchesSingleNode(t *testing.T) {
	cfg := surface.Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16)},
		RWRatios:   []float64{1, 0.5},
		Rates:      []float64{0.25, 0.9},
		ArrayBytes: 4 << 20,
		WindowTxns: 1024,
		ProbeHops:  64,
	}
	req := service.SurfaceRequest{Target: "gpu", Config: &cfg}

	single := surfEnv(t, service.Options{})
	resp, data := single.post(t, "/v1/surface", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node surface status %d: %s", resp.StatusCode, data)
	}
	sj := decodeJob(t, data)
	if sj.Status != service.StatusDone || sj.Surface == nil {
		t.Fatalf("single-node surface job = %+v", sj)
	}
	want, _ := json.Marshal(sj.Surface)

	// Workers need raw devices: the counting wrapper hides the
	// MemorySystem interface surface shards require.
	fe := newFleetEnv(t, 2, func(int) service.Options {
		return service.Options{NewDevice: targets.ByID}
	})
	resp, data = fe.post(t, "/v1/surface", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet surface status %d: %s", resp.StatusCode, data)
	}
	fj := decodeJob(t, data)
	if fj.Status != service.StatusDone || fj.Surface == nil {
		t.Fatalf("fleet surface job = %+v", fj)
	}
	got, _ := json.Marshal(fj.Surface)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet surface diverges from single node:\n got %s\nwant %s", got, want)
	}
	shardJobs := 0
	for _, w := range fe.workers {
		shardJobs += len(workerJobs(t, w))
	}
	if shardJobs < 2 {
		t.Errorf("surface ran as %d shard jobs, want >= 2", shardJobs)
	}
}

// TestFleetOptimizeSharesRunCache: an optimize on the coordinator runs
// the search locally but farms every simulation to the fleet; the
// result equals a single-node search and the coordinator itself never
// compiles a kernel.
func TestFleetOptimizeSharesRunCache(t *testing.T) {
	base := smallConfig()
	op := kernel.Copy
	req := service.OptimizeRequest{
		Target:   "cpu",
		Base:     &base,
		Op:       &op,
		Space:    dse.Space{VecWidths: []int{1, 2, 4, 8}},
		Strategy: "exhaustive",
	}

	single := newEnv(t, service.Options{})
	resp, data := single.post(t, "/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node optimize status %d: %s", resp.StatusCode, data)
	}
	sj := decodeJob(t, data)
	if sj.Status != service.StatusDone || sj.Optimize == nil {
		t.Fatalf("single-node optimize job = %+v", sj)
	}
	want, _ := json.Marshal(sj.Optimize)

	fe := newFleetEnv(t, 2, nil)
	resp, data = fe.post(t, "/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet optimize status %d: %s", resp.StatusCode, data)
	}
	fj := decodeJob(t, data)
	if fj.Status != service.StatusDone || fj.Optimize == nil {
		t.Fatalf("fleet optimize job = %+v", fj)
	}
	got, _ := json.Marshal(fj.Optimize)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet optimize diverges from single node:\n got %s\nwant %s", got, want)
	}
	if n := fe.compiles.Load(); n != 0 {
		t.Errorf("coordinator compiled %d kernels, want 0", n)
	}
	if n := fe.workerCompiles(); n == 0 {
		t.Error("workers compiled nothing — evaluations did not distribute")
	}

	// The remote results primed the coordinator's per-point run cache: a
	// repeat of one grid point is answered locally without any new
	// worker compile.
	before := fe.workerCompiles()
	cfg := smallConfig()
	cfg.VecWidth = 4
	resp, data = fe.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, data)
	}
	rj := decodeJob(t, data)
	if rj.Status != service.StatusDone || !rj.Cached {
		t.Errorf("post-optimize run = %+v, want cached hit", rj)
	}
	if after := fe.workerCompiles(); after != before {
		t.Errorf("cache-hit run still compiled on workers (%d -> %d)", before, after)
	}
	if fe.compiles.Load() != 0 {
		t.Errorf("cache-hit run compiled on the coordinator")
	}
}

// fleetCheckSurface is a two-curve ladder, so a fleet surface check
// has at least two shards to spread across the workers.
func fleetCheckSurface() surface.Config {
	return surface.Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16)},
		RWRatios:   []float64{1},
		Rates:      []float64{0.25, 0.9},
		ArrayBytes: 4 << 20,
		WindowTxns: 1024,
		ProbeHops:  64,
	}
}

// checkBaselines records a run and a surface baseline on e from inline
// measurements, checks both, and returns the two check jobs, each of
// which must have passed.
func checkBaselines(t *testing.T, e *testEnv, run *core.Result, surf *surface.Surface) (runCheck, surfCheck service.View) {
	t.Helper()
	for _, req := range []service.BaselineRequest{
		{Name: "run", Target: "cpu", Result: run},
		{Name: "surface", Target: "gpu", Surface: surf},
	} {
		if resp, data := e.post(t, "/v1/baselines", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("record %s: status %d: %s", req.Name, resp.StatusCode, data)
		}
	}
	check := func(name string) service.View {
		resp, data := e.post(t, "/v1/check", service.CheckRequest{Name: name})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %s: status %d: %s", name, resp.StatusCode, data)
		}
		job := decodeJob(t, data)
		if job.Status != service.StatusDone || job.Check == nil {
			t.Fatalf("check %s job = status %q error %q", name, job.Status, job.Error)
		}
		if job.Check.Verdict != baseline.VerdictPass || job.Check.Partial {
			t.Errorf("check %s: verdict %q partial %v, violations %v",
				name, job.Check.Verdict, job.Check.Partial, job.Check.Violations)
		}
		return job
	}
	return check("run"), check("surface")
}

// TestFleetCheckMatchesSingleNode: on a coordinator with alive workers
// a run check measures through the remote-eval pool and a surface check
// shards its ladder across the fleet; both verdict pass and measure
// exactly what a single-node check measures. A coordinator whose fleet
// is empty verdicts the same checks through the local fallback.
func TestFleetCheckMatchesSingleNode(t *testing.T) {
	cfg := smallConfig()
	scfg := fleetCheckSurface()
	single := surfEnv(t, service.Options{})
	_, data := single.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	run := decodeJob(t, data)
	_, data = single.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu", Config: &scfg})
	surf := decodeJob(t, data)
	if run.Result == nil || surf.Surface == nil {
		t.Fatalf("reference measurements: run %+v, surface %+v", run, surf)
	}
	wantRun, wantSurf := checkBaselines(t, single, run.Result, surf.Surface)
	want := func(v service.View) string {
		b, _ := json.Marshal(struct {
			R *core.Result
			S *surface.Surface
		}{v.Result, v.Surface})
		return string(b)
	}

	// Workers need raw devices: the counting wrapper hides the
	// MemorySystem interface surface shards require. The coordinator
	// keeps the counting wrapper, so a surface measured on it would fail
	// and a run measured on it would count a compile.
	fe := newFleetEnv(t, 2, func(int) service.Options {
		return service.Options{NewDevice: targets.ByID}
	})
	gotRun, gotSurf := checkBaselines(t, fe.testEnv, run.Result, surf.Surface)
	if got := want(gotRun); got != want(wantRun) {
		t.Errorf("fleet run check measured\n %s\nwant\n %s", got, want(wantRun))
	}
	if got := want(gotSurf); got != want(wantSurf) {
		t.Errorf("fleet surface check measured\n %s\nwant\n %s", got, want(wantSurf))
	}
	if n := fe.compiles.Load(); n != 0 {
		t.Errorf("coordinator compiled %d kernels, want 0 (checks must run on the fleet)", n)
	}
	shardJobs := 0
	for _, w := range fe.workers {
		shardJobs += len(workerJobs(t, w))
	}
	// One remote run plus at least two surface shards.
	if shardJobs < 3 {
		t.Errorf("workers ran %d jobs, want >= 3", shardJobs)
	}

	coord := cluster.New(cluster.Options{})
	t.Cleanup(coord.Close)
	empty := surfEnv(t, service.Options{Cluster: coord})
	gotRun, gotSurf = checkBaselines(t, empty, run.Result, surf.Surface)
	if got := want(gotRun); got != want(wantRun) {
		t.Errorf("local-fallback run check measured\n %s\nwant\n %s", got, want(wantRun))
	}
	if got := want(gotSurf); got != want(wantSurf) {
		t.Errorf("local-fallback surface check measured\n %s\nwant\n %s", got, want(wantSurf))
	}
}

// TestFleetFallsBackWithoutWorkers: a coordinator whose fleet is empty
// executes sweeps locally instead of failing.
func TestFleetFallsBackWithoutWorkers(t *testing.T) {
	req := sweepReq()
	want := singleNodeSweep(t, req)

	coord := cluster.New(cluster.Options{})
	t.Cleanup(coord.Close)
	e := newEnv(t, service.Options{Cluster: coord})
	resp, data := e.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("job = %+v", job)
	}
	got, _ := json.Marshal(job.Sweep)
	if !bytes.Equal(got, want) {
		t.Fatalf("local-fallback sweep diverges:\n got %s\nwant %s", got, want)
	}
	if e.compiles.Load() == 0 {
		t.Error("empty-fleet coordinator did not execute locally")
	}
}

// TestClusterEndpoints covers the fleet control plane: registration,
// heartbeat, the registry listing, coordinator-only gating, and the
// healthz worker counts.
func TestClusterEndpoints(t *testing.T) {
	coord := cluster.New(cluster.Options{})
	t.Cleanup(coord.Close)
	e := newEnv(t, service.Options{Cluster: coord})

	// Register over HTTP.
	resp, data := e.post(t, "/v1/cluster/register", cluster.WorkerInfo{
		ID: "w0", Addr: "http://127.0.0.1:1", Targets: []string{"cpu"}, Capacity: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d: %s", resp.StatusCode, data)
	}
	var rr cluster.RegisterResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.TTLMS <= 0 || rr.HeartbeatMS <= 0 || rr.HeartbeatMS >= rr.TTLMS {
		t.Errorf("register response = %+v", rr)
	}

	// Heartbeats: known for w0, unknown for a stranger.
	for _, tc := range []struct {
		id   string
		want bool
	}{{"w0", true}, {"ghost", false}} {
		resp, data = e.post(t, "/v1/cluster/heartbeat", cluster.HeartbeatRequest{ID: tc.id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("heartbeat status %d: %s", resp.StatusCode, data)
		}
		var hr cluster.HeartbeatResponse
		if err := json.Unmarshal(data, &hr); err != nil {
			t.Fatal(err)
		}
		if hr.Known != tc.want {
			t.Errorf("heartbeat(%s).known = %v, want %v", tc.id, hr.Known, tc.want)
		}
	}

	// Registry listing.
	resp, data = e.get(t, "/v1/cluster/workers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers status %d: %s", resp.StatusCode, data)
	}
	var wr service.WorkersResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Workers) != 1 || wr.Workers[0].ID != "w0" || !wr.Workers[0].Alive {
		t.Errorf("workers = %+v", wr.Workers)
	}

	// Healthz reports the fleet.
	resp, data = e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		UptimeMS *int64 `json:"uptime_ms"`
		Cluster  *struct {
			WorkersAlive int `json:"workers_alive"`
			WorkersTotal int `json:"workers_total"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.UptimeMS == nil {
		t.Error("healthz missing uptime_ms")
	}
	if h.Cluster == nil || h.Cluster.WorkersAlive != 1 || h.Cluster.WorkersTotal != 1 {
		t.Errorf("healthz cluster = %+v", h.Cluster)
	}

	// A plain server is not a coordinator: control-plane endpoints 404,
	// and healthz omits the cluster block.
	plain := newEnv(t, service.Options{})
	resp, _ = plain.post(t, "/v1/cluster/register", cluster.WorkerInfo{ID: "w", Addr: "http://x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("register on plain server = %d, want 404", resp.StatusCode)
	}
	resp, _ = plain.get(t, "/v1/cluster/workers")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("workers on plain server = %d, want 404", resp.StatusCode)
	}
	_, data = plain.get(t, "/v1/healthz")
	if strings.Contains(string(data), `"cluster"`) {
		t.Error("plain healthz reports a cluster block")
	}
}

// TestShardEndpoints: any server executes a /v1/sweep that carries a
// shard range locally, the slice points match the corresponding
// full-grid slice, and malformed sweep and surface ranges are request
// errors.
func TestShardEndpoints(t *testing.T) {
	e := newEnv(t, service.Options{})
	req := sweepReq()

	// A 5-point slice [3, 8) of the 16-point grid.
	req.Shard = &shard.Range{Lo: 3, Hi: 8}
	resp, data := e.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep shard status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("shard job = %+v", job)
	}
	if n := len(job.Sweep.Ranked) + job.Sweep.Infeasible; n != 5 {
		t.Errorf("shard evaluated %d points, want 5", n)
	}
	if job.Progress == nil || job.Progress.Total != 5 {
		t.Errorf("shard progress = %+v, want total 5", job.Progress)
	}

	// Out-of-grid ranges are rejected.
	for _, r := range []shard.Range{{Lo: -1, Hi: 4}, {Lo: 9, Hi: 4}, {Lo: 0, Hi: 17}} {
		req.Shard = &r
		resp, data := e.post(t, "/v1/sweep", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "out of the 16-point grid") {
			t.Errorf("sweep shard [%d,%d) = %d %s, want 400 out of the grid", r.Lo, r.Hi, resp.StatusCode, data)
		}
	}
	for _, r := range []shard.Range{{Lo: 2, Hi: 99}, {Lo: 3, Hi: 1}} {
		resp, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu", Shard: &r})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "-curve ladder") {
			t.Errorf("surface shard [%d,%d) = %d %s, want 400 out of the ladder", r.Lo, r.Hi, resp.StatusCode, data)
		}
	}
}

// TestShardedSweepNeverReshards: a coordinator with an alive worker
// runs a /v1/sweep that carries a shard range itself, and no request
// reaches the worker; the same body without the range is sharded to
// the worker.
func TestShardedSweepNeverReshards(t *testing.T) {
	fe := newFleetEnv(t, 0, nil)
	worker := newEnv(t, service.Options{Origin: "w0"})
	var hits atomic.Int64
	h := worker.srv.Handler()
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)
	fe.coord.Register(cluster.WorkerInfo{ID: "w0", Addr: counted.URL, Targets: targets.IDs(), Capacity: 2})

	req := sweepReq()
	req.Shard = &shard.Range{Lo: 3, Hi: 8}
	resp, data := fe.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil || len(job.Sweep.Ranked)+job.Sweep.Infeasible != 5 {
		t.Fatalf("sharded sweep job = %+v, want 5 points done", job)
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("a sharded sweep sent %d requests to the worker, want 0", n)
	}
	if n := fe.coord.Stats().ShardsAssigned; n != 0 {
		t.Errorf("a sharded sweep assigned %d fleet shards, want 0", n)
	}
	local := fe.compiles.Load()
	if local == 0 {
		t.Error("the coordinator compiled nothing for a sharded sweep it must run itself")
	}

	req.Shard = nil
	resp, data = fe.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whole sweep status %d: %s", resp.StatusCode, data)
	}
	job = decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil || len(job.Sweep.Ranked)+job.Sweep.Infeasible != 16 {
		t.Fatalf("whole sweep job = %+v, want 16 points done", job)
	}
	if hits.Load() == 0 || fe.coord.Stats().ShardsAssigned == 0 {
		t.Errorf("the whole sweep did not reach the worker (%d requests, %d shards)", hits.Load(), fe.coord.Stats().ShardsAssigned)
	}
	if n := fe.compiles.Load(); n != local {
		t.Errorf("the coordinator compiled %d kernels for the whole sweep, want 0", n-local)
	}
}

// TestContentTypeRejected: POST bodies declaring a non-JSON content
// type are refused with 415 before any decoding; JSON spellings and an
// absent header pass.
func TestContentTypeRejected(t *testing.T) {
	e := newEnv(t, service.Options{})
	body := `{"target":"cpu"}`

	for _, ct := range []string{"text/plain", "application/x-www-form-urlencoded", "application/octet-stream"} {
		resp, err := http.Post(e.ts.URL+"/v1/run", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("content type %q = %d, want 415", ct, resp.StatusCode)
		}
	}

	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8", "application/hal+json"} {
		req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/run", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// The default config runs fine; anything but 415 means the
		// content-type gate let it through.
		if resp.StatusCode == http.StatusUnsupportedMediaType {
			t.Errorf("content type %q rejected with 415", ct)
		}
	}
}

// delayDevice wraps a real target and sleeps before every kernel
// compilation — an injectable per-worker slowdown that models a
// heterogeneous or overloaded fleet node without changing any result
// bytes.
type delayDevice struct {
	device.Device
	delay time.Duration
}

func (d delayDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	time.Sleep(d.delay)
	return d.Device.Compile(k)
}

// delayedWorker builds worker options where worker `slow` compiles
// with the given delay and every other worker runs at full speed.
func delayedWorker(slow int, delay time.Duration) func(i int) service.Options {
	return func(i int) service.Options {
		if i != slow {
			return service.Options{}
		}
		return service.Options{NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return delayDevice{Device: d, delay: delay}, nil
		}}
	}
}

// stragglerSweepReq is a 24-point cpu sweep — enough shards (at unit
// granularity) for the pull queue's load skew to be unambiguous.
func stragglerSweepReq() service.SweepRequest {
	base := smallConfig()
	op := kernel.Copy
	return service.SweepRequest{
		Target: "cpu",
		Base:   &base,
		Op:     &op,
		Space: dse.Space{
			VecWidths: []int{1, 2, 4, 8},
			Unrolls:   []int{1, 2, 3},
			Types:     []kernel.DataType{kernel.Int32, kernel.Float64},
		},
	}
}

// TestFleetSweepStragglerStealing: with one worker 50ms-per-point slow
// and single-point shards, the pull queue lets the fast workers drain
// almost the whole grid — wall clock stays under what a static
// third-of-the-grid partition would pin on the straggler, the load
// skews to the fast workers, and the merged bytes still match a single
// node. Run with -race.
func TestFleetSweepStragglerStealing(t *testing.T) {
	const delay = 50 * time.Millisecond
	req := stragglerSweepReq()
	want := singleNodeSweep(t, req)

	fe := newFleetEnvOpts(t, 3,
		func(o *cluster.Options) { o.ShardUnit = 1 },
		delayedWorker(2, delay))

	start := time.Now()
	resp, data := fe.post(t, "/v1/sweep", req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("fleet sweep job = %+v", job)
	}
	got, err := json.Marshal(job.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("straggler fleet sweep diverges from single node:\n got %s\nwant %s", got, want)
	}

	// A static 3-way partition would hand the straggler 8 points:
	// >= 400ms of wall clock no matter what the fast workers do. The
	// queue must beat that bound — the fast workers finish the grid
	// while the straggler chews a shard or two.
	if staticBound := 8 * delay; elapsed >= staticBound {
		t.Errorf("sweep took %v, want < %v (static-partition straggler bound)", elapsed, staticBound)
	}
	var slowDone, fastDone uint64
	for _, w := range fe.coord.Workers() {
		if w.ID == "w2" {
			slowDone += w.ShardsDone
		} else {
			fastDone += w.ShardsDone
		}
	}
	if slowDone+fastDone == 0 || fastDone <= slowDone*2 {
		t.Errorf("shard completion skew fast=%d slow=%d, want fast workers absorbing the queue", fastDone, slowDone)
	}

	// The merged stream carries queue depth on shard events.
	_, events := fe.get(t, "/v1/jobs/"+job.ID+"/events")
	queued := 0
	for _, line := range bytes.Split(events, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event %s: %v", line, err)
		}
		if ev.Type == service.EventShard && ev.Shard != nil && ev.Shard.Queued > 0 {
			queued++
		}
	}
	if queued == 0 {
		t.Error("no shard event carried a queue depth")
	}
}

// TestFleetSweepSpeculationDedup: a worker wedged inside its shards
// never returns; once the queue is empty the dispatcher speculates
// duplicates onto the idle fast worker, the first result settles each
// shard, the wedged attempts are canceled as race losers, and the
// merged bytes still match a single node. Run with -race.
func TestFleetSweepSpeculationDedup(t *testing.T) {
	req := sweepReq()
	want := singleNodeSweep(t, req)

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	fe := newFleetEnvOpts(t, 2,
		func(o *cluster.Options) {
			o.ShardUnit = 1
			o.DisableSpeculation = false
			// The 25ms floor governs the trigger: fast shards finish in ~1ms.
		},
		func(i int) service.Options {
			if i != 1 {
				return service.Options{}
			}
			// Worker 1 wedges inside every compilation until the gate
			// opens (after the job completes without it).
			return service.Options{NewDevice: func(id string) (device.Device, error) {
				d, err := targets.ByID(id)
				if err != nil {
					return nil, err
				}
				return signalGateDevice{Device: d, signal: func() {}, gate: gate}, nil
			}}
		})

	resp, data := fe.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("fleet sweep job = %+v (error %q)", job.Status, job.Error)
	}
	got, err := json.Marshal(job.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("speculated fleet sweep diverges from single node:\n got %s\nwant %s", got, want)
	}

	st := fe.coord.Stats()
	if st.ShardsSpeculated == 0 {
		t.Error("no speculative attempt launched for the wedged shards")
	}
	if st.SpeculationWins == 0 {
		t.Error("no speculative attempt won its race")
	}

	// The merged stream shows the race: speculated launches and the
	// wedged primaries tagged as race losers.
	_, events := fe.get(t, "/v1/jobs/"+job.ID+"/events")
	speculated, lostRace := 0, 0
	for _, line := range bytes.Split(events, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event %s: %v", line, err)
		}
		if ev.Type == service.EventShard && ev.Shard != nil {
			switch ev.Shard.State {
			case "speculated":
				speculated++
			case "lost-race":
				lostRace++
			}
		}
	}
	if speculated == 0 {
		t.Error("no speculated shard event in the merged stream")
	}
	if lostRace == 0 {
		t.Error("no lost-race shard event in the merged stream")
	}
	openGate()
}

// TestFleetSweepWorkerJoinsMidJob: a worker registered while a fleet
// job is in flight starts pulling queued shards immediately — the
// elastic half of the scheduler — and the merged bytes still match a
// single node. Run with -race.
func TestFleetSweepWorkerJoinsMidJob(t *testing.T) {
	req := stragglerSweepReq()
	want := singleNodeSweep(t, req)

	// The lone starting worker is slow enough (20ms/point) that the
	// job is still mostly queued when the second worker joins.
	fe := newFleetEnvOpts(t, 1,
		func(o *cluster.Options) { o.ShardUnit = 1 },
		delayedWorker(0, 20*time.Millisecond))

	resp, data := fe.post(t, "/v1/sweep", service.SweepRequest{
		Target: req.Target, Base: req.Base, Op: req.Op, Space: req.Space, Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)

	// Wait until the job has measurable progress, then join a fast
	// replacement-grade worker mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, jd := fe.get(t, "/v1/jobs/"+job.ID)
		v := decodeJob(t, jd)
		if v.Progress != nil && v.Progress.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress on the slow worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	joined := newEnv(t, service.Options{Origin: "w1"})
	fe.coord.Register(cluster.WorkerInfo{
		ID: "w1", Addr: joined.ts.URL, Targets: targets.IDs(), Capacity: 2,
	})

	final := fe.pollJob(t, job.ID)
	if final.Status != service.StatusDone || final.Sweep == nil {
		t.Fatalf("fleet sweep after join = %s (error %q)", final.Status, final.Error)
	}
	got, err := json.Marshal(final.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-join fleet sweep diverges from single node:\n got %s\nwant %s", got, want)
	}
	if len(workerJobs(t, joined)) == 0 {
		t.Error("joined worker pulled no shards from the in-flight job")
	}
}
