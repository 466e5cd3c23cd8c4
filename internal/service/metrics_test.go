package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpstream/internal/obs"
	"mpstream/internal/service"
)

// scrape fetches /v1/metrics and returns the exposition body.
func scrape(t *testing.T, e *testEnv) string {
	t.Helper()
	resp, data := e.get(t, "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	return string(data)
}

// metricValueOk extracts one sample's value from an exposition body;
// pattern is a regexp matching the full sample name+labels prefix. The
// second return is false when the family has no such sample yet.
func metricValueOk(body, pattern string) (float64, bool) {
	re := regexp.MustCompile(`(?m)^` + pattern + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func metricValue(t *testing.T, body, pattern string) float64 {
	t.Helper()
	v, ok := metricValueOk(body, pattern)
	if !ok {
		t.Fatalf("no sample matching %q in:\n%s", pattern, body)
	}
	return v
}

// postRun submits one synchronous run and asserts it finished done.
func postRun(t *testing.T, e *testEnv) service.View {
	t.Helper()
	cfg := smallConfig()
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("run job = %+v", job)
	}
	return job
}

// TestMetricsEndpoint covers the exposition contract: after one run,
// the scrape is well-formed Prometheus text and carries the http,
// jobs, cache and sim families the issue demands.
func TestMetricsEndpoint(t *testing.T) {
	e := newEnv(t, service.Options{})
	postRun(t, e)
	postRun(t, e) // second submission is a cache hit

	body := scrape(t, e)
	obs.ValidateExposition(t, body)
	for _, want := range []string{
		"# TYPE mpstream_http_requests_total counter",
		`mpstream_http_requests_total{code="200",route="POST /v1/run"} 2`,
		"# TYPE mpstream_http_request_seconds histogram",
		`mpstream_jobs_submitted_total{kind="run"} 2`,
		`mpstream_jobs_finished_total{kind="run",status="done"} 2`,
		"# TYPE mpstream_job_duration_seconds histogram",
		`mpstream_jobs{state="done"} 2`,
		`mpstream_jobs{state="failed"} 0`,
		`mpstream_cache_hits_total{cache="run"} 1`,
		`mpstream_cache_entries{cache="run"} 1`,
		`mpstream_cache_misses_total{cache="optimize"} 0`,
		"mpstream_queue_depth 0",
		"mpstream_sim_evaluations_total",
		"mpstream_sim_dram_requests_total",
		"mpstream_sim_evaluation_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestMetricsDisabled pins the uninstrumented baseline: DisableMetrics
// serves no /v1/metrics route.
func TestMetricsDisabled(t *testing.T) {
	e := newEnv(t, service.Options{DisableMetrics: true})
	resp, _ := e.get(t, "/v1/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("metrics status %d with DisableMetrics, want 404", resp.StatusCode)
	}
	// Traces still flow without metrics.
	resp, _ = e.get(t, "/v1/healthz")
	if resp.Header.Get(obs.TraceHeader) == "" {
		t.Error("no trace header with metrics disabled")
	}
}

// TestMetricsMonotonicUnderConcurrency hammers the server with
// concurrent jobs while scraping, asserting the finished-jobs counter
// never goes backwards between scrapes and lands exactly on the total.
// Meaningful under -race, which CI runs.
func TestMetricsMonotonicUnderConcurrency(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 4})
	const goroutines, runsEach = 4, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	var lastSeen float64
	var scrapeMu sync.Mutex
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := scrape(t, e)
			v, ok := metricValueOk(body, `mpstream_jobs_submitted_total\{kind="run"\}`)
			if !ok {
				continue // family not created until the first submission
			}
			scrapeMu.Lock()
			if v < lastSeen {
				t.Errorf("jobs_submitted_total went backwards: %v -> %v", lastSeen, v)
			}
			lastSeen = v
			scrapeMu.Unlock()
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				cfg := smallConfig()
				cfg.ArrayBytes = int64(1<<14) << uint(g) // distinct fingerprints
				cfg.NTimes = 1 + i
				resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("run status %d: %s", resp.StatusCode, data)
				}
			}
		}(g)
	}
	// Stop the scraper only after the submitters are done.
	wg.Wait()
	close(stop)
	<-scraperDone

	body := scrape(t, e)
	obs.ValidateExposition(t, body)
	total := float64(goroutines * runsEach)
	if v := metricValue(t, body, `mpstream_jobs_submitted_total\{kind="run"\}`); v != total {
		t.Errorf("jobs_submitted_total = %v, want %v", v, total)
	}
	if v := metricValue(t, body, `mpstream_jobs_finished_total\{kind="run",status="done"\}`); v != total {
		t.Errorf("jobs_finished_total = %v, want %v", v, total)
	}
	if v := metricValue(t, body, `mpstream_job_duration_seconds_count\{kind="run"\}`); v != total {
		t.Errorf("job_duration_seconds_count = %v, want %v", v, total)
	}
}

// TestTraceSingleServer pins the trace contract on one server: a
// supplied trace is echoed, lands in the job view, and stamps every
// event in the NDJSON stream; an absent trace is minted.
func TestTraceSingleServer(t *testing.T) {
	e := newEnv(t, service.Options{})
	cfg := smallConfig()
	b, err := json.Marshal(service.RunRequest{Target: "cpu", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/run", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "trace-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "trace-test-1" {
		t.Errorf("trace echoed as %q", got)
	}
	job := decodeJob(t, data)
	if job.Trace != "trace-test-1" {
		t.Errorf("job trace %q, want trace-test-1", job.Trace)
	}

	// Every event of the job's stream carries the trace.
	sresp, err := http.Get(e.ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	events := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		events++
		if ev.Trace != "trace-test-1" {
			t.Errorf("event %d (%s) trace %q, want trace-test-1", ev.Seq, ev.Type, ev.Trace)
		}
		if ev.Type == service.EventResult {
			break
		}
	}
	if events == 0 {
		t.Fatal("no events streamed")
	}

	// Without a supplied trace, the server mints a well-formed one.
	minted := postRun(t, e)
	if minted.Trace == "" || obs.SanitizeTraceID(minted.Trace) == "" {
		t.Errorf("minted job trace %q invalid", minted.Trace)
	}
}

// TestFleetTracePropagation asserts the coordinator's trace ID reaches
// the worker-side shard jobs via the X-Mpstream-Trace header: every
// shard job on every worker carries the coordinator job's trace.
func TestFleetTracePropagation(t *testing.T) {
	fe := newFleetEnv(t, 2, nil)
	b, err := json.Marshal(sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, fe.ts.URL+"/v1/sweep", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "fleet-trace-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("fleet sweep job = %+v", job)
	}
	if job.Trace != "fleet-trace-7" {
		t.Errorf("coordinator job trace %q, want fleet-trace-7", job.Trace)
	}

	shardJobs := 0
	for i, w := range fe.workers {
		for _, v := range workerJobs(t, w) {
			shardJobs++
			if v.Trace != "fleet-trace-7" {
				t.Errorf("worker %d job %s trace %q, want fleet-trace-7", i, v.ID, v.Trace)
			}
		}
	}
	if shardJobs == 0 {
		t.Fatal("no shard jobs landed on the workers")
	}

	// The coordinator's scrape shows fleet scheduling outcomes.
	body := scrape(t, fe.testEnv)
	obs.ValidateExposition(t, body)
	if v := metricValue(t, body, `mpstream_cluster_shards_total\{state="done"\}`); v < 1 {
		t.Errorf("cluster shards done = %v, want >= 1", v)
	}
	if v := metricValue(t, body, `mpstream_cluster_workers\{state="alive"\}`); v != 2 {
		t.Errorf("cluster workers alive = %v, want 2", v)
	}
	for _, want := range []string{
		`mpstream_cluster_worker_inflight{worker="w0"}`,
		`mpstream_cluster_worker_heartbeat_age_seconds{worker="w1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator scrape missing %q", want)
		}
	}
}

// TestJobsTotalFiltered pins the /v1/jobs counts satellite: total is
// all retained jobs, filtered the state-matching count before the
// limit truncation.
func TestJobsTotalFiltered(t *testing.T) {
	e := newEnv(t, service.Options{})
	for i := 0; i < 3; i++ {
		cfg := smallConfig()
		cfg.NTimes = 1 + i
		resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status %d: %s", i, resp.StatusCode, data)
		}
	}
	resp, data := e.get(t, "/v1/jobs?state=done&limit=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs status %d: %s", resp.StatusCode, data)
	}
	var jr service.JobsResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 1 || jr.Total != 3 || jr.Filtered != 3 {
		t.Errorf("jobs = %d listed, total %d, filtered %d; want 1/3/3", len(jr.Jobs), jr.Total, jr.Filtered)
	}
	resp, data = e.get(t, "/v1/jobs?state=failed")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs status %d: %s", resp.StatusCode, data)
	}
	jr = service.JobsResponse{}
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 0 || jr.Total != 3 || jr.Filtered != 0 {
		t.Errorf("failed jobs = %d listed, total %d, filtered %d; want 0/3/0", len(jr.Jobs), jr.Total, jr.Filtered)
	}
}

// TestHealthzJobsSection asserts /v1/healthz reports every lifecycle
// state, zeros included.
func TestHealthzJobsSection(t *testing.T) {
	e := newEnv(t, service.Options{})
	postRun(t, e)
	_, data := e.get(t, "/v1/healthz")
	var h struct {
		Jobs map[string]int `json:"jobs"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	for _, st := range service.Statuses() {
		if _, ok := h.Jobs[string(st)]; !ok {
			t.Errorf("healthz jobs missing state %q: %v", st, h.Jobs)
		}
	}
	if h.Jobs["done"] != 1 {
		t.Errorf("healthz jobs done = %d, want 1", h.Jobs["done"])
	}
}

// TestMetricsHistogramBuckets asserts the request-latency histogram's
// cumulative bucket invariant on a real scrape: counts never decrease
// across increasing bounds and the +Inf bucket equals _count.
func TestMetricsHistogramBuckets(t *testing.T) {
	e := newEnv(t, service.Options{})
	for i := 0; i < 5; i++ {
		e.get(t, "/v1/healthz")
	}
	body := scrape(t, e)
	re := regexp.MustCompile(`(?m)^mpstream_http_request_seconds_bucket\{route="GET /v1/healthz",le="([^"]+)"\} (\d+)$`)
	matches := re.FindAllStringSubmatch(body, -1)
	if len(matches) < 2 {
		t.Fatalf("no healthz buckets in scrape:\n%s", body)
	}
	prev := -1.0
	last := 0.0
	var lastLE string
	for _, m := range matches {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("bucket le=%q count %v below previous %v", m[1], v, prev)
		}
		prev, last, lastLE = v, v, m[1]
	}
	if lastLE != "+Inf" {
		t.Errorf("last bucket le=%q, want +Inf", lastLE)
	}
	count := metricValue(t, body, `mpstream_http_request_seconds_count\{route="GET /v1/healthz"\}`)
	if last != count || count < 5 {
		t.Errorf("+Inf bucket %v vs count %v (want equal, >= 5)", last, count)
	}
}
