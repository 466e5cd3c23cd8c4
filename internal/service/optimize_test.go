package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/kernel"
	"mpstream/internal/service"
)

func optSpace() dse.Space {
	return dse.Space{VecWidths: []int{1, 2, 4}, Unrolls: []int{1, 2}}
}

// TestOptimizeSync drives a synchronous optimize end to end and checks
// the search outcome agrees with a local search.Run over the same
// (canonicalized) request.
func TestOptimizeSync(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	req := service.OptimizeRequest{
		Target: "aocl", Base: &base, Space: optSpace(),
		Op: ptr(kernel.Triad), Strategy: "hillclimb", Budget: 4, Seed: 9,
	}
	resp, data := e.post(t, "/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Optimize == nil {
		t.Fatalf("job = %+v", job)
	}
	if job.Fingerprint == "" {
		t.Error("optimize job must carry its request fingerprint")
	}
	got := job.Optimize
	if got.Strategy != "hillclimb" || got.Evaluations == 0 || got.Evaluations > 4 {
		t.Errorf("optimize = strategy %q, %d evaluations", got.Strategy, got.Evaluations)
	}

	dev, err := targets.ByID("aocl")
	if err != nil {
		t.Fatal(err)
	}
	canon := base
	canon.Ops = []kernel.Op{kernel.Triad}
	want, err := search.Run(dev, canon.Canonical(), optSpace(), kernel.Triad,
		search.Options{Strategy: "hillclimb", Budget: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("service optimize differs from local search.Run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestOptimizeBadRequests covers the submit-time validation: unknown
// strategy names, negative budgets, budgets beyond the server limit
// (explicit or implied by an unbudgeted huge space), and unknown
// targets.
func TestOptimizeBadRequests(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	huge := dse.Space{VecWidths: []int{1, 2, 4, 8, 16}, Unrolls: make([]int, 1000)}

	cases := []struct {
		name string
		req  service.OptimizeRequest
		want string
	}{
		{"unknown strategy",
			service.OptimizeRequest{Target: "cpu", Base: &base, Space: optSpace(), Strategy: "gradient-descent"},
			"unknown strategy"},
		{"negative budget",
			service.OptimizeRequest{Target: "cpu", Base: &base, Space: optSpace(), Budget: -3},
			"budget -3"},
		// An explicit budget beyond the server limit is rejected; note a
		// budget above a *small* space clamps to the space size instead,
		// so the oversized space is what makes this case bite.
		{"budget beyond limit",
			service.OptimizeRequest{Target: "cpu", Base: &base, Budget: service.DefaultMaxOptimizeBudget + 1, Space: huge},
			"exceeds limit"},
		{"unbudgeted huge space",
			service.OptimizeRequest{Target: "cpu", Base: &base, Space: huge},
			"exceeds limit"},
		{"unknown target",
			service.OptimizeRequest{Target: "tpu", Base: &base, Space: optSpace()},
			"unknown target"},
	}
	for _, tc := range cases {
		resp, data := e.post(t, "/v1/optimize", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: body %s does not mention %q", tc.name, data, tc.want)
		}
	}

	// A budget within the limit over the same huge space is fine.
	ok := service.OptimizeRequest{Target: "cpu", Base: &base, Strategy: "random", Budget: 4,
		Space: dse.Space{VecWidths: []int{1, 2, 4, 8, 16}, Unrolls: make([]int, 1000)}}
	// Zero-valued unrolls are canonically identical; give them real values.
	for i := range ok.Space.Unrolls {
		ok.Space.Unrolls[i] = i + 1
	}
	resp, data := e.post(t, "/v1/optimize", ok)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("budgeted search over huge space: status %d: %s", resp.StatusCode, data)
	}
}

// TestOptimizeCacheHit: a repeated identical optimize request is
// served from the optimizer LRU without simulating anything, and a
// request differing only in seed is not.
func TestOptimizeCacheHit(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	req := service.OptimizeRequest{
		Target: "cpu", Base: &base, Space: optSpace(),
		Strategy: "anneal", Budget: 5, Seed: 3,
	}

	_, data := e.post(t, "/v1/optimize", req)
	first := decodeJob(t, data)
	if first.Status != service.StatusDone || first.Cached {
		t.Fatalf("first optimize = %+v", first)
	}
	compilesAfterFirst := e.compiles.Load()
	if compilesAfterFirst == 0 {
		t.Fatal("first optimize must simulate")
	}

	_, data = e.post(t, "/v1/optimize", req)
	second := decodeJob(t, data)
	if second.Status != service.StatusDone || !second.Cached {
		t.Fatalf("repeat optimize = %+v, want cached", second)
	}
	if got := e.compiles.Load(); got != compilesAfterFirst {
		t.Errorf("repeat optimize recompiled: %d -> %d", compilesAfterFirst, got)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	a, _ := json.Marshal(first.Optimize)
	b, _ := json.Marshal(second.Optimize)
	if !bytes.Equal(a, b) {
		t.Error("cached optimize result differs from the original")
	}

	// A different seed is a different search: no whole-result hit, but
	// its evaluations ride the per-point result cache primed above.
	reseeded := req
	reseeded.Seed = 4
	_, data = e.post(t, "/v1/optimize", reseeded)
	third := decodeJob(t, data)
	if third.Status != service.StatusDone {
		t.Fatalf("reseeded optimize = %+v", third)
	}
	if third.Cached {
		t.Error("different seed must not hit the whole-result cache")
	}
	if third.Fingerprint == first.Fingerprint {
		t.Error("different seed must fingerprint differently")
	}

	var h struct {
		OptimizeCache service.CacheStats `json:"optimize_cache"`
	}
	_, data = e.get(t, "/v1/healthz")
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.OptimizeCache.Hits < 1 || h.OptimizeCache.Entries == 0 {
		t.Errorf("optimize cache stats = %+v", h.OptimizeCache)
	}
}

// TestOptimizeSharesRunCache: optimizer evaluations hit the per-point
// result cache primed by a sweep over the same grid, so the search
// simulates nothing new. The space must be all-feasible: sweeps cache
// only successful results, so infeasible points would re-simulate.
func TestOptimizeSharesRunCache(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	op := kernel.Copy
	feasible := dse.Space{VecWidths: []int{1, 2, 4}, Types: []kernel.DataType{kernel.Int32, kernel.Float64}}

	_, data := e.post(t, "/v1/sweep", service.SweepRequest{Target: "cpu", Base: &base, Space: feasible, Op: &op})
	if decodeJob(t, data).Status != service.StatusDone {
		t.Fatal("priming sweep failed")
	}
	compilesAfterSweep := e.compiles.Load()

	_, data = e.post(t, "/v1/optimize", service.OptimizeRequest{
		Target: "cpu", Base: &base, Space: feasible, Op: &op, Strategy: "exhaustive"})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("optimize = %+v", job)
	}
	if job.CachedPoints != job.Optimize.Evaluations {
		t.Errorf("optimize cached %d of %d evaluations, want all", job.CachedPoints, job.Optimize.Evaluations)
	}
	if got := e.compiles.Load(); got != compilesAfterSweep {
		t.Errorf("optimize after sweep recompiled: %d -> %d", compilesAfterSweep, got)
	}
}

// TestConcurrentIdenticalOptimizeSingleFlight: overlapping identical
// optimize requests search once. A gated device holds the leader's
// first simulation open while followers pile up; after release exactly
// one search's worth of compilations has happened and the followers
// report cached results.
func TestConcurrentIdenticalOptimizeSingleFlight(t *testing.T) {
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
	base := smallConfig()
	req := service.OptimizeRequest{
		Target: "cpu", Base: &base, Space: optSpace(),
		Strategy: "random", Budget: 3, Seed: 1, Async: true,
	}
	const n = 4
	var jobs []string
	for i := 0; i < n; i++ {
		_, data := e.post(t, "/v1/optimize", req)
		jobs = append(jobs, decodeJob(t, data).ID)
	}
	close(gate)
	cached := 0
	var first *search.Result
	for _, id := range jobs {
		v := e.pollJob(t, id)
		if v.Status != service.StatusDone || v.Optimize == nil {
			t.Fatalf("job %s = %+v", id, v)
		}
		if v.Cached {
			cached++
		}
		if first == nil {
			first = v.Optimize
		} else {
			a, _ := json.Marshal(first)
			b, _ := json.Marshal(v.Optimize)
			if !bytes.Equal(a, b) {
				t.Errorf("job %s result differs from the leader's", id)
			}
		}
	}
	if cached != n-1 {
		t.Errorf("%d of %d optimize jobs cached, want %d", cached, n, n-1)
	}
	// One search simulates each unique point once: the budget bounds
	// compilations to budget x kernels-per-run (1 op here).
	if got := compiles.Load(); got > 3 {
		t.Errorf("identical concurrent optimizes compiled %d kernels, want <= 3", got)
	}
}

// TestOptimizeAsyncAndList: async optimize jobs poll to completion and
// appear in the job list with their kind.
func TestOptimizeAsyncAndList(t *testing.T) {
	e := newEnv(t, service.Options{})
	base := smallConfig()
	resp, data := e.post(t, "/v1/optimize", service.OptimizeRequest{
		Target: "gpu", Base: &base, Space: optSpace(), Strategy: "random", Budget: 2, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	final := e.pollJob(t, job.ID)
	if final.Status != service.StatusDone || final.Optimize == nil {
		t.Fatalf("job = %+v", final)
	}
	if final.Kind != service.KindOptimize {
		t.Errorf("kind = %q, want %q", final.Kind, service.KindOptimize)
	}

	resp, data = e.get(t, "/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var jl service.JobsResponse
	if err := json.Unmarshal(data, &jl); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range jl.Jobs {
		if v.ID == job.ID && v.Kind == service.KindOptimize {
			found = true
		}
	}
	if !found {
		t.Errorf("optimize job %s missing from list", job.ID)
	}
}

// TestOptimizeDisabledCache: with caching off, identical optimize
// requests both execute and neither reports cached.
func TestOptimizeDisabledCache(t *testing.T) {
	e := newEnv(t, service.Options{CacheEntries: -1})
	base := smallConfig()
	req := service.OptimizeRequest{Target: "cpu", Base: &base, Space: optSpace(), Strategy: "random", Budget: 2, Seed: 8}
	for i := 0; i < 2; i++ {
		_, data := e.post(t, "/v1/optimize", req)
		job := decodeJob(t, data)
		if job.Status != service.StatusDone || job.Cached || job.CachedPoints != 0 {
			t.Fatalf("optimize %d = %+v", i, job)
		}
	}
}
