package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/service"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// surfEnv builds a server whose devices expose their memory systems
// (the default counting wrapper hides MemModel behind the Device
// interface).
func surfEnv(t *testing.T, opts service.Options) *testEnv {
	t.Helper()
	opts.NewDevice = targets.ByID
	return newEnv(t, opts)
}

func smallSurface() surface.Config {
	return surface.Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern()},
		RWRatios:   []float64{1},
		Rates:      []float64{0.25, 1.0},
		ArrayBytes: 4 << 20,
		WindowTxns: 2048,
		ProbeHops:  128,
	}
}

// TestSurfaceSync drives a synchronous surface request end to end and
// checks the result is exactly what a local generation produces — the
// determinism the acceptance criterion demands.
func TestSurfaceSync(t *testing.T) {
	e := surfEnv(t, service.Options{})
	cfg := smallSurface()
	resp, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu", Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Surface == nil {
		t.Fatalf("job = %+v", job)
	}
	if job.Kind != service.KindSurface {
		t.Errorf("kind = %q", job.Kind)
	}
	if job.Fingerprint == "" {
		t.Error("surface job must carry its request fingerprint")
	}

	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	want, err := surface.GenerateShardWith(context.Background(), dev, cfg, 0, cfg.CurveCount(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(job.Surface)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("service surface differs from local generation:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestSurfaceCacheHit: the second identical request is served from the
// surface LRU, flagged cached, with an equal payload.
func TestSurfaceCacheHit(t *testing.T) {
	e := surfEnv(t, service.Options{})
	cfg := smallSurface()
	req := service.SurfaceRequest{Target: "cpu", Config: &cfg}
	_, first := e.post(t, "/v1/surface", req)
	j1 := decodeJob(t, first)
	if j1.Status != service.StatusDone || j1.Cached {
		t.Fatalf("first request: %+v", j1)
	}
	_, second := e.post(t, "/v1/surface", req)
	j2 := decodeJob(t, second)
	if !j2.Cached {
		t.Error("second identical surface request must hit the cache")
	}
	a, _ := json.Marshal(j1.Surface)
	b, _ := json.Marshal(j2.Surface)
	if !bytes.Equal(a, b) {
		t.Error("cached surface differs from the original")
	}
	// Default and explicitly-defaulted configurations share one entry.
	_, third := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu"})
	j3 := decodeJob(t, third)
	if j3.Fingerprint == j1.Fingerprint {
		t.Error("default config unexpectedly fingerprints like the small config")
	}
	full := surface.Config{}.WithDefaults()
	_, fourth := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu", Config: &full})
	j4 := decodeJob(t, fourth)
	if j4.Fingerprint != j3.Fingerprint {
		t.Error("explicit defaults must fingerprint like the implicit default")
	}
	if !j4.Cached {
		t.Error("explicit defaults must hit the implicit default's cache entry")
	}
}

// TestSurfaceSingleFlight: concurrent identical requests measure once.
func TestSurfaceSingleFlight(t *testing.T) {
	e := surfEnv(t, service.Options{})
	cfg := smallSurface()
	req := service.SurfaceRequest{Target: "aocl", Config: &cfg}
	const n = 4
	var wg sync.WaitGroup
	jobs := make([]service.View, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, data := e.post(t, "/v1/surface", req)
			jobs[i] = decodeJob(t, data)
		}(i)
	}
	wg.Wait()
	cached := 0
	var payload []byte
	for _, j := range jobs {
		if j.Status != service.StatusDone || j.Surface == nil {
			t.Fatalf("job = %+v", j)
		}
		if j.Cached {
			cached++
		}
		b, _ := json.Marshal(j.Surface)
		if payload == nil {
			payload = b
		} else if !bytes.Equal(payload, b) {
			t.Error("concurrent identical requests returned different surfaces")
		}
	}
	if cached < n-1 {
		t.Errorf("%d of %d concurrent requests were cached, want at least %d", cached, n, n-1)
	}
}

func TestSurfaceBadRequests(t *testing.T) {
	e := surfEnv(t, service.Options{})
	resp, _ := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "tpu"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown target: status %d", resp.StatusCode)
	}
	bad := smallSurface()
	bad.KneeFactor = 0.5
	resp, _ = e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu", Config: &bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid knee factor: status %d", resp.StatusCode)
	}
	huge := smallSurface()
	huge.Rates = make([]float64, 1000)
	for i := range huge.Rates {
		huge.Rates[i] = 0.1 + float64(i)*0.001
	}
	resp, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu", Config: &huge})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "ladder") {
		t.Errorf("oversized ladder: status %d body %s", resp.StatusCode, data)
	}
	// A finite rate whose offered GB/s overflows to +Inf cannot be
	// encoded: it must be refused, not answered with an empty body.
	overflow := smallSurface()
	overflow.Rates = []float64{1e308}
	resp, data = e.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu", Config: &overflow})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "rate") {
		t.Errorf("overflowing rate: status %d body %q", resp.StatusCode, data)
	}
	wide := smallSurface()
	wide.WindowTxns = 1 << 22
	resp, _ = e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu", Config: &wide})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized window: status %d", resp.StatusCode)
	}
}

// TestSurfaceDeviceWithoutMemorySystem: a factory whose devices hide
// their memory model fails the job cleanly instead of crashing.
func TestSurfaceDeviceWithoutMemorySystem(t *testing.T) {
	e := newEnv(t, service.Options{}) // counting wrapper hides MemModel
	cfg := smallSurface()
	_, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu", Config: &cfg})
	job := decodeJob(t, data)
	if job.Status != service.StatusFailed || !strings.Contains(job.Error, "memory system") {
		t.Errorf("job = %+v", job)
	}
}

// TestOptimizeKneeObjective drives /v1/optimize under the knee
// objective and checks the fingerprint behaviour of the objective
// field: gbps canonicalizes onto the legacy default, knee does not.
func TestOptimizeKneeObjective(t *testing.T) {
	e := surfEnv(t, service.Options{})
	base := smallConfig()
	space := dse.Space{VecWidths: []int{1, 4}}
	mk := func(objective string) service.View {
		_, data := e.post(t, "/v1/optimize", service.OptimizeRequest{
			Target: "gpu", Base: &base, Space: space,
			Op: ptr(kernel.Copy), Strategy: "exhaustive", Objective: objective,
		})
		return decodeJob(t, data)
	}
	def, gbps, knee := mk(""), mk("gbps"), mk("knee")
	if def.Fingerprint != gbps.Fingerprint {
		t.Error("explicit gbps objective must fingerprint like the default")
	}
	if !gbps.Cached {
		t.Error("explicit gbps objective must hit the default's cache entry")
	}
	if knee.Fingerprint == def.Fingerprint {
		t.Error("knee objective must fingerprint differently")
	}
	if knee.Status != service.StatusDone || knee.Optimize == nil {
		t.Fatalf("knee job = %+v", knee)
	}
	if knee.Optimize.Objective != "knee" {
		t.Errorf("objective = %q", knee.Optimize.Objective)
	}
	if knee.Optimize.Best == nil || knee.Optimize.Best.KneeGBps <= 0 {
		t.Errorf("knee best = %+v", knee.Optimize.Best)
	}
	resp, _ := e.post(t, "/v1/optimize", service.OptimizeRequest{
		Target: "gpu", Space: space, Objective: "latency",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown objective: status %d", resp.StatusCode)
	}
}

// TestVersion checks the discovery endpoint.
func TestVersion(t *testing.T) {
	e := surfEnv(t, service.Options{})
	resp, data := e.get(t, "/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v service.VersionResponse
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Service != "mpstream" || v.GoVersion == "" {
		t.Errorf("version = %+v", v)
	}
	if len(v.Targets) != 4 {
		t.Errorf("targets = %v", v.Targets)
	}
	if len(v.Strategies) == 0 {
		t.Error("no strategies reported")
	}
	want := map[string]bool{"gbps": false, "knee": false}
	for _, o := range v.Objectives {
		want[o] = true
	}
	for o, seen := range want {
		if !seen {
			t.Errorf("objective %q missing from %v", o, v.Objectives)
		}
	}
}

// TestHealthzSurfaceCache: the new cache shows up in telemetry.
func TestHealthzSurfaceCache(t *testing.T) {
	e := surfEnv(t, service.Options{})
	cfg := smallSurface()
	req := service.SurfaceRequest{Target: "gpu", Config: &cfg}
	e.post(t, "/v1/surface", req)
	e.post(t, "/v1/surface", req)
	_, data := e.get(t, "/v1/healthz")
	var h struct {
		SurfaceCache service.CacheStats `json:"surface_cache"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.SurfaceCache.Entries != 1 || h.SurfaceCache.Hits == 0 {
		t.Errorf("surface cache stats = %+v", h.SurfaceCache)
	}
}

func TestSurfaceProbeHopsBounded(t *testing.T) {
	e := surfEnv(t, service.Options{})
	long := smallSurface()
	long.ProbeHops = 1 << 27
	resp, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "cpu", Config: &long})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "probe") {
		t.Errorf("oversized probe: status %d body %s", resp.StatusCode, data)
	}
}
