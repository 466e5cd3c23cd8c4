package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/service"
)

// countingDevice wraps a real target and counts kernel compilations —
// the unambiguous signal that the simulator actually executed rather
// than the cache answering.
type countingDevice struct {
	device.Device
	compiles *atomic.Int64
}

func (d countingDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	d.compiles.Add(1)
	return d.Device.Compile(k)
}

// gatedDevice blocks every compilation until the gate closes, to pin a
// job inside a worker deterministically.
type gatedDevice struct {
	device.Device
	gate <-chan struct{}
}

func (d gatedDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	<-d.gate
	return d.Device.Compile(k)
}

// panickyDevice simulates a crash bug in a backend.
type panickyDevice struct {
	device.Device
}

func (d panickyDevice) Compile(kernel.Kernel) (device.Compiled, error) {
	panic("synthetic simulator crash")
}

// testEnv is one server + HTTP test harness with execution counting.
type testEnv struct {
	srv      *service.Server
	ts       *httptest.Server
	compiles *atomic.Int64
}

func newEnv(t *testing.T, opts service.Options) *testEnv {
	t.Helper()
	compiles := &atomic.Int64{}
	if opts.NewDevice == nil {
		opts.NewDevice = func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return countingDevice{Device: d, compiles: compiles}, nil
		}
	}
	srv := service.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testEnv{srv: srv, ts: ts, compiles: compiles}
}

// smallConfig is a fast verified single-kernel run.
func smallConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 1 << 16
	cfg.NTimes = 2
	return cfg
}

func (e *testEnv) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func (e *testEnv) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeJob(t *testing.T, data []byte) service.View {
	t.Helper()
	var jr service.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("decode job response: %v\n%s", err, data)
	}
	return jr.Job
}

func TestHealthz(t *testing.T) {
	e := newEnv(t, service.Options{})
	resp, data := e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Cache   struct {
			Capacity int `json:"capacity"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers < 1 || h.Cache.Capacity < 1 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestTargets(t *testing.T) {
	e := newEnv(t, service.Options{})
	resp, data := e.get(t, "/v1/targets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tr service.TargetsResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Targets) != 4 {
		t.Fatalf("got %d targets", len(tr.Targets))
	}
	want := targets.IDs()
	for i, tv := range tr.Targets {
		if tv.ID != want[i] {
			t.Errorf("target %d = %q, want %q", i, tv.ID, want[i])
		}
		if tv.PeakMemGBps <= 0 {
			t.Errorf("target %s missing fields: %+v", tv.ID, tv)
		}
	}
	// The wire format spells enums as strings.
	if !strings.Contains(string(data), `"kind": "fpga"`) || !strings.Contains(string(data), `"optimal_loop": "flat"`) {
		t.Errorf("targets body missing string enums: %s", data)
	}
}

func TestRunSync(t *testing.T) {
	e := newEnv(t, service.Options{})
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: ptr(smallConfig())})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("status %q, error %q", job.Status, job.Error)
	}
	if job.Cached {
		t.Error("first run must not be cached")
	}
	if job.Fingerprint == "" {
		t.Error("run job must carry its fingerprint")
	}
	if job.Result == nil || len(job.Result.Kernels) != 1 {
		t.Fatalf("result = %+v", job.Result)
	}
	kr := job.Result.Kernels[0]
	if kr.Op != kernel.Copy || !kr.Verified || kr.GBps <= 0 {
		t.Errorf("kernel result = %+v", kr)
	}
}

func TestRunAsyncAndPoll(t *testing.T) {
	e := newEnv(t, service.Options{})
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "gpu", Config: ptr(smallConfig()), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.ID == "" {
		t.Fatal("async response must carry a job id")
	}
	final := e.pollJob(t, job.ID)
	if final.Status != service.StatusDone || final.Result == nil {
		t.Fatalf("job = %+v", final)
	}
}

func (e *testEnv) pollJob(t *testing.T, id string) service.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := e.get(t, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, data)
		}
		job := decodeJob(t, data)
		if job.Status == service.StatusDone || job.Status == service.StatusFailed || job.Status == service.StatusCanceled {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobsListAndNotFound(t *testing.T) {
	e := newEnv(t, service.Options{})
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: ptr(smallConfig())})
	job := decodeJob(t, data)

	resp, data := e.get(t, "/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var jl service.JobsResponse
	if err := json.Unmarshal(data, &jl); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range jl.Jobs {
		if v.ID == job.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("job %s missing from list %+v", job.ID, jl.Jobs)
	}

	resp, _ = e.get(t, "/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	e := newEnv(t, service.Options{})

	resp, _ := e.post(t, "/v1/run", service.RunRequest{Target: "tpu"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown target status %d", resp.StatusCode)
	}

	bad := smallConfig()
	bad.ArrayBytes = -4
	resp, _ = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid config status %d", resp.StatusCode)
	}

	r, err := http.Post(e.ts.URL+"/v1/run", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", r.StatusCode)
	}

	// A typoed field name must be rejected, not silently defaulted.
	r, err = http.Post(e.ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"target":"cpu","config":{"arraybytes":65536}}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", r.StatusCode)
	}

	huge := service.SweepRequest{Target: "cpu", Space: dse.Space{
		VecWidths: []int{1, 2, 4, 8, 16},
		Unrolls:   make([]int, 1000),
	}}
	resp, _ = e.post(t, "/v1/sweep", huge)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep status %d", resp.StatusCode)
	}

	// Bodies beyond the limit are rejected before decoding completes.
	big := strings.NewReader(`{"target":"cpu","space":{"vec_widths":[` + strings.Repeat("1,", 3<<20) + `1]}}`)
	r, err = http.Post(e.ts.URL+"/v1/sweep", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("giant body status %d, want 413", r.StatusCode)
	}
}

// A vector width whose element size overflows uint32 is a bad request,
// not a panic on the handler goroutine (which drops the connection).
func TestRunOverflowingVecWidth(t *testing.T) {
	e := newEnv(t, service.Options{})
	r, err := http.Post(e.ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"target":"cpu","config":{"array_bytes":4096,"vec_width":1073741824}}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing vec_width status %d, want 400", r.StatusCode)
	}
}

// TestResourceBounds rejects configurations that would exhaust the
// host or pin a worker: empty ops (panic vector), oversized arrays,
// giant repetition counts, and over-limit verified arrays.
func TestResourceBounds(t *testing.T) {
	e := newEnv(t, service.Options{})

	empty := smallConfig()
	empty.Ops = []kernel.Op{}
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &empty})
	job := decodeJob(t, data)
	if resp.StatusCode != http.StatusOK || job.Status != service.StatusDone {
		t.Errorf(`"ops":[] must run all four kernels: %d %+v`, resp.StatusCode, job)
	} else if len(job.Result.Kernels) != 4 {
		t.Errorf(`"ops":[] ran %d kernels, want 4`, len(job.Result.Kernels))
	}

	huge := smallConfig()
	huge.ArrayBytes = 1 << 60
	resp, _ = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &huge})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("array beyond device memory: status %d, want 400", resp.StatusCode)
	}

	spins := smallConfig()
	spins.NTimes = 1 << 30
	resp, _ = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &spins})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("giant ntimes: status %d, want 400", resp.StatusCode)
	}

	bigVerify := smallConfig()
	bigVerify.ArrayBytes = 1 << 30
	resp, _ = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &bigVerify})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized verified array: status %d, want 400", resp.StatusCode)
	}
	resp, _ = e.post(t, "/v1/sweep", service.SweepRequest{Target: "cpu", Base: &spins, Space: dse.Space{VecWidths: []int{1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep with giant ntimes base: status %d, want 400", resp.StatusCode)
	}
}

// TestWorkerPanicRecovery: a simulator panic fails the job, not the
// server.
func TestWorkerPanicRecovery(t *testing.T) {
	e := newEnv(t, service.Options{
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return panickyDevice{Device: d}, nil
		},
	})
	cfg := smallConfig()
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	job := decodeJob(t, data)
	if job.Status != service.StatusFailed || !strings.Contains(job.Error, "panicked") {
		t.Fatalf("panicking run job = %+v", job)
	}

	op := kernel.Copy
	_, data = e.post(t, "/v1/sweep", service.SweepRequest{Target: "cpu", Base: &cfg, Space: dse.Space{VecWidths: []int{1, 2}}, Op: &op})
	sweep := decodeJob(t, data)
	if sweep.Status != service.StatusDone || sweep.Sweep.Infeasible != 2 {
		t.Fatalf("panicking sweep job = %+v", sweep)
	}

	// The server survived both.
	resp, _ := e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: %d", resp.StatusCode)
	}
}

// TestRunCacheHit is the service's core guarantee: a repeated identical
// /v1/run answers from the cache without compiling or simulating again.
func TestRunCacheHit(t *testing.T) {
	e := newEnv(t, service.Options{})
	req := service.RunRequest{Target: "aocl", Config: ptr(smallConfig())}

	_, data := e.post(t, "/v1/run", req)
	first := decodeJob(t, data)
	if first.Status != service.StatusDone || first.Cached {
		t.Fatalf("first run = %+v", first)
	}
	compilesAfterFirst := e.compiles.Load()
	if compilesAfterFirst == 0 {
		t.Fatal("first run must compile")
	}

	_, data = e.post(t, "/v1/run", req)
	second := decodeJob(t, data)
	if second.Status != service.StatusDone {
		t.Fatalf("second run = %+v", second)
	}
	if !second.Cached {
		t.Error("repeated identical run must be served from the cache")
	}
	if got := e.compiles.Load(); got != compilesAfterFirst {
		t.Errorf("repeated run recompiled: %d -> %d compilations", compilesAfterFirst, got)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}

	// An equivalent config spelled with a defaulted field omitted hits
	// too: fingerprints are canonical (zero Scalar means DefaultScalar).
	sparse := smallConfig()
	sparse.Scalar = 0
	_, data = e.post(t, "/v1/run", service.RunRequest{Target: "aocl", Config: &sparse})
	third := decodeJob(t, data)
	if !third.Cached {
		t.Error("canonically equal config must hit the cache")
	}

	var h struct {
		Cache service.CacheStats `json:"cache"`
	}
	_, data = e.get(t, "/v1/healthz")
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache.Hits < 2 || h.Cache.Entries == 0 {
		t.Errorf("cache stats = %+v", h.Cache)
	}
}

func TestSweepMatchesExploreAndCaches(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	space := dse.Space{VecWidths: []int{1, 2, 4}}
	op := kernel.Copy

	req := service.SweepRequest{Target: "cpu", Base: &base, Space: space, Op: &op}
	resp, data := e.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Sweep == nil {
		t.Fatalf("job = %+v", job)
	}
	if len(job.Sweep.Ranked) != 3 || job.Sweep.Infeasible != 0 {
		t.Fatalf("sweep = %d ranked, %d infeasible", len(job.Sweep.Ranked), job.Sweep.Infeasible)
	}

	// The service ranking is byte-identical to a local dse.Explore.
	dev, err := targets.ByID("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := dse.Explore(dev, base, space, op)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(*job.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("service sweep differs from dse.Explore:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// A repeated sweep serves every grid point from the cache.
	compilesBefore := e.compiles.Load()
	_, data = e.post(t, "/v1/sweep", req)
	again := decodeJob(t, data)
	if again.Status != service.StatusDone {
		t.Fatalf("repeat sweep = %+v", again)
	}
	if again.CachedPoints != 3 {
		t.Errorf("repeat sweep cached %d/3 points", again.CachedPoints)
	}
	if got := e.compiles.Load(); got != compilesBefore {
		t.Errorf("repeat sweep recompiled: %d -> %d", compilesBefore, got)
	}
	againJSON, err := json.Marshal(*again.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, againJSON) {
		t.Error("cached sweep ranking differs from fresh ranking")
	}

	// A /v1/run matching one grid point hits the sweep-primed cache.
	pt := base
	pt.Ops = []kernel.Op{op}
	pt.VecWidth = 2
	_, data = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &pt})
	run := decodeJob(t, data)
	if !run.Cached {
		t.Error("run matching a sweep grid point must hit the cache")
	}
}

// TestDisabledCache: with CacheEntries < 0, nothing is cached, nothing
// is deduplicated, and the cache telemetry stays silent.
func TestDisabledCache(t *testing.T) {
	e := newEnv(t, service.Options{CacheEntries: -1})
	cfg := smallConfig()
	req := service.RunRequest{Target: "cpu", Config: &cfg}
	for i := 0; i < 2; i++ {
		_, data := e.post(t, "/v1/run", req)
		job := decodeJob(t, data)
		if job.Status != service.StatusDone || job.Cached {
			t.Fatalf("run %d = %+v", i, job)
		}
	}
	op := kernel.Copy
	_, data := e.post(t, "/v1/sweep", service.SweepRequest{Target: "cpu", Base: &cfg, Space: dse.Space{VecWidths: []int{1, 2}}, Op: &op})
	sweep := decodeJob(t, data)
	if sweep.Status != service.StatusDone || sweep.CachedPoints != 0 {
		t.Fatalf("sweep = %+v", sweep)
	}
	stats := e.srv.CacheStats()
	if stats.Hits != 0 || stats.Misses != 0 || stats.Entries != 0 {
		t.Errorf("disabled cache recorded activity: %+v", stats)
	}
}

// TestSweepCachedPointConfigConsistency: a sweep grid point served
// from a cache entry primed under a canonically-equal spelling must
// still read exactly like a fresh evaluation — Point.Config and
// Result.Config agree with the grid, not with the original submitter.
func TestSweepCachedPointConfigConsistency(t *testing.T) {
	e := newEnv(t, service.Options{})
	cfg := smallConfig() // Attrs.Unroll == 0
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	if decodeJob(t, data).Status != service.StatusDone {
		t.Fatal("prime run failed")
	}

	op := kernel.Copy
	// unroll 1 is canonically equal to the primed unroll 0.
	req := service.SweepRequest{Target: "cpu", Base: &cfg, Space: dse.Space{Unrolls: []int{1}}, Op: &op}
	_, data = e.post(t, "/v1/sweep", req)
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.CachedPoints != 1 {
		t.Fatalf("job = %+v", job)
	}
	pt := job.Sweep.Ranked[0]
	if pt.Config.Attrs.Unroll != 1 {
		t.Errorf("point config unroll = %d, want the grid's 1", pt.Config.Attrs.Unroll)
	}
	if pt.Result.Config.Attrs.Unroll != 1 {
		t.Errorf("cached result config unroll = %d, want re-homed to the grid's 1", pt.Result.Config.Attrs.Unroll)
	}

	// And symmetrically: a run hitting the sweep-primed (unroll 1)
	// entry reads like a fresh canonical run (unroll 0).
	_, data = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	run := decodeJob(t, data)
	if !run.Cached {
		t.Fatal("run must hit the primed cache")
	}
	if run.Result.Config.Attrs.Unroll != 0 {
		t.Errorf("cached run result unroll = %d, want canonical 0", run.Result.Config.Attrs.Unroll)
	}
}

// TestConcurrentSweepSubmission exercises the queue, pool and cache
// under parallel submitters; run with -race.
func TestConcurrentSweepSubmission(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	space := dse.Space{VecWidths: []int{1, 2}, Types: []kernel.DataType{kernel.Int32, kernel.Float64}}
	op := kernel.Triad

	const submitters = 8
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := []string{"cpu", "gpu"}[i%2]
			req := service.SweepRequest{Target: target, Base: &base, Space: space, Op: &op}
			b, _ := json.Marshal(req)
			resp, err := http.Post(e.ts.URL+"/v1/sweep", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("submitter %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var jr service.JobResponse
			if err := json.Unmarshal(data, &jr); err != nil {
				errs <- err
				return
			}
			if jr.Job.Status != service.StatusDone || jr.Job.Sweep == nil {
				errs <- fmt.Errorf("submitter %d: job %+v", i, jr.Job)
				return
			}
			if got := len(jr.Job.Sweep.Ranked) + jr.Job.Sweep.Infeasible; got != 4 {
				errs <- fmt.Errorf("submitter %d: %d points, want 4", i, got)
			}
		}(i)
	}
	// Concurrent pollers stress the job store while sweeps execute.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				resp, err := http.Get(e.ts.URL + "/v1/jobs")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueueFull pins the single worker on a gated device and fills the
// one-slot queue; the next submission must be rejected with 503.
func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	opts := service.Options{
		Workers:    1,
		QueueDepth: 1,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return gatedDevice{Device: d, gate: gate}, nil
		},
	}
	e := newEnv(t, opts)
	cfg := smallConfig()

	// Job A occupies the worker (blocked in Compile).
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, Async: true})
	a := decodeJob(t, data)
	waitStatus(t, e, a.ID, service.StatusRunning)

	// Job B fills the queue. Vary the config so neither hits the cache.
	cfgB := cfg
	cfgB.VecWidth = 2
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfgB, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d: %s", resp.StatusCode, data)
	}
	b := decodeJob(t, data)

	// Job C overflows.
	cfgC := cfg
	cfgC.VecWidth = 4
	resp, _ = e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfgC, Async: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overflow submit status %d, want 503", resp.StatusCode)
	}

	// The library surface must not hand back a job that will never run.
	cfgD := cfg
	cfgD.VecWidth = 8
	if j, err := e.srv.SubmitRun(context.Background(), "cpu", cfgD, 0); err == nil || j != nil {
		t.Errorf("overflow SubmitRun = (%v, %v), want (nil, ErrQueueFull)", j, err)
	}

	close(gate)
	if final := e.pollJob(t, a.ID); final.Status != service.StatusDone {
		t.Errorf("job A = %+v", final)
	}
	if final := e.pollJob(t, b.ID); final.Status != service.StatusDone {
		t.Errorf("job B = %+v", final)
	}
}

func waitStatus(t *testing.T, e *testEnv, id string, want service.Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := e.get(t, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s: status %d: %s", id, resp.StatusCode, data)
		}
		status := decodeJob(t, data).Status
		if status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %s)", id, want, status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFailedRunJob drives an infeasible configuration end to end.
func TestFailedRunJob(t *testing.T) {
	e := newEnv(t, service.Options{})
	cfg := smallConfig()
	cfg.OptimalLoop = false
	cfg.Loop = kernel.FlatLoop
	cfg.Attrs.Unroll = 64
	cfg.VecWidth = 16
	cfg.Type = kernel.Float64
	cfg.Ops = []kernel.Op{kernel.Triad}
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "aocl", Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusFailed || job.Error == "" {
		t.Fatalf("infeasible run job = %+v", job)
	}
}

// TestCloseFailsQueuedJobs guarantees no waiter deadlocks across
// shutdown: every submitted job's Done channel closes even if the job
// never ran.
func TestCloseFailsQueuedJobs(t *testing.T) {
	gate := make(chan struct{})
	srv := service.New(service.Options{
		Workers: 1,
		// Room for all three jobs even if the worker has not dequeued the
		// first one yet.
		QueueDepth: 3,
		NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return gatedDevice{Device: d, gate: gate}, nil
		},
	})
	var jobs []*service.Job
	for i, vec := range []int{1, 2, 4} {
		cfg := smallConfig()
		cfg.VecWidth = vec
		j, err := srv.SubmitRun(context.Background(), "cpu", cfg, 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	close(gate)
	srv.Close()
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d Done channel still open after Close", i)
		}
		v := j.Snapshot()
		if v.Status != service.StatusDone && v.Status != service.StatusFailed {
			t.Errorf("job %d left in %s after Close", i, v.Status)
		}
	}
}

// TestSweepFactoryFailureFailsJob distinguishes infrastructure errors
// from infeasible design points: a device factory that breaks mid-sweep
// must fail the job, not report an empty successful exploration.
func TestSweepFactoryFailureFailsJob(t *testing.T) {
	e := newEnv(t, service.Options{
		// Submit-time validation is a membership check against
		// TargetInfos, so the broken factory is only hit by sweep workers.
		NewDevice: func(id string) (device.Device, error) {
			return nil, fmt.Errorf("backend exploded")
		},
	})
	base := smallConfig()
	req := service.SweepRequest{Target: "cpu", Base: &base, Space: dse.Space{VecWidths: []int{1, 2}}}
	resp, data := e.post(t, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusFailed || !strings.Contains(job.Error, "backend exploded") {
		t.Fatalf("job = %+v", job)
	}
	if job.Sweep != nil {
		t.Error("failed sweep must not carry an exploration")
	}
}

// TestConcurrentIdenticalRunsSingleFlight proves overlapping identical
// submissions simulate once: a gated leader holds the simulation open
// while followers pile up, and after release only one compilation has
// happened.
func TestConcurrentIdenticalRunsSingleFlight(t *testing.T) {
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
	const n = 4
	var jobs []string
	for i := 0; i < n; i++ {
		_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg, Async: true})
		jobs = append(jobs, decodeJob(t, data).ID)
	}
	close(gate)
	cached := 0
	for _, id := range jobs {
		v := e.pollJob(t, id)
		if v.Status != service.StatusDone {
			t.Fatalf("job %s = %+v", id, v)
		}
		if v.Cached {
			cached++
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Errorf("identical concurrent runs compiled %d times, want 1", got)
	}
	if cached != n-1 {
		t.Errorf("%d of %d jobs cached, want %d", cached, n, n-1)
	}
}

// TestSubmitAfterClose returns ErrClosed instead of queueing a job no
// worker will ever run.
func TestSubmitAfterClose(t *testing.T) {
	srv := service.New(service.Options{Workers: 1})
	srv.Close()
	j, err := srv.SubmitRun(context.Background(), "cpu", smallConfig(), 0)
	if j != nil || !errors.Is(err, service.ErrClosed) {
		t.Errorf("SubmitRun after Close = (%v, %v), want (nil, ErrClosed)", j, err)
	}
}

func ptr[T any](v T) *T { return &v }
