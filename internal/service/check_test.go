package service_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/runstate"
	"mpstream/internal/service"
)

func recordRunBaseline(t *testing.T, e *testEnv, name, target string) baseline.Entry {
	t.Helper()
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: target, Config: ptr(smallConfig())})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("measurement job = %+v", job)
	}
	resp, data := e.post(t, "/v1/baselines", service.BaselineRequest{Name: name, FromJob: job.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record baseline: status %d: %s", resp.StatusCode, data)
	}
	var br service.BaselineResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	return br.Baseline.Entry
}

// TestBaselineRecordAndCheckPass: record a run baseline from a finished
// job, re-check it on the same deterministic simulator, and read the
// pass verdict back through every surface: the job view, the baseline
// view, and /v1/metrics. The check must re-measure, not answer from
// the result cache.
func TestBaselineRecordAndCheckPass(t *testing.T) {
	e := newEnv(t, service.Options{})
	entry := recordRunBaseline(t, e, "cpu-run", "cpu")
	if entry.Kind != baseline.KindRun || entry.Target != "cpu" || entry.Fingerprint == "" {
		t.Fatalf("entry = %+v", entry)
	}
	if len(entry.Reference.Kernels) == 0 {
		t.Fatal("entry carries no kernel references")
	}

	before := e.compiles.Load()
	resp, data := e.post(t, "/v1/check", service.CheckRequest{Name: "cpu-run"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Kind != service.KindCheck {
		t.Fatalf("check job = %+v", job)
	}
	if job.Check == nil {
		t.Fatal("check job carries no report")
	}
	if job.Check.Verdict != baseline.VerdictPass {
		t.Errorf("verdict = %q, violations %v", job.Check.Verdict, job.Check.Violations)
	}
	if job.Check.DriftRatio != 0 {
		t.Errorf("identical re-measurement drift ratio = %g, want 0", job.Check.DriftRatio)
	}
	if job.Fingerprint != entry.Fingerprint {
		t.Errorf("check fingerprint %q != entry fingerprint %q", job.Fingerprint, entry.Fingerprint)
	}
	if e.compiles.Load() == before {
		t.Error("check answered without re-measuring (cache must be bypassed)")
	}
	names := map[string]bool{}
	for _, m := range job.Check.Metrics {
		names[m.Name] = true
	}
	if !names["gbps[copy]"] || !names["ns[copy]"] {
		t.Errorf("metrics missing kernel families: %v", names)
	}

	// The baseline view carries the latest verdict.
	resp, data = e.get(t, "/v1/baselines/cpu-run")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get baseline: status %d", resp.StatusCode)
	}
	var bv service.BaselineResponse
	if err := json.Unmarshal(data, &bv); err != nil {
		t.Fatal(err)
	}
	if bv.Baseline.LastCheck == nil || bv.Baseline.LastCheck.Verdict != baseline.VerdictPass {
		t.Errorf("baseline view last_check = %+v", bv.Baseline.LastCheck)
	}

	_, data = e.get(t, "/v1/metrics")
	if !strings.Contains(string(data), `mpstream_baseline_checks_total{verdict="pass"} 1`) {
		t.Error("pass verdict not visible in /v1/metrics")
	}
	if !strings.Contains(string(data), `mpstream_baseline_drift_ratio{baseline="cpu-run"}`) {
		t.Error("drift-ratio gauge missing from /v1/metrics")
	}

	// Delete ends the monitoring; later lookups and checks 404.
	req, _ := http.NewRequest(http.MethodDelete, e.ts.URL+"/v1/baselines/cpu-run", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	resp, _ = e.get(t, "/v1/baselines/cpu-run")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get deleted baseline: status %d, want 404", resp.StatusCode)
	}
	resp, _ = e.post(t, "/v1/check", service.CheckRequest{Name: "cpu-run"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("check deleted baseline: status %d, want 404", resp.StatusCode)
	}
}

// TestCheckDriftFailsAcrossRestart: a baseline recorded through one
// server survives in the DirStore and, re-opened by a second server
// configured with a perturbation drill, produces a fail verdict naming
// the violated metrics — visible in the report, the metrics endpoint
// and the alerts feed.
func TestCheckDriftFailsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store1, warns, err := baseline.OpenDirStore(dir)
	if err != nil || len(warns) > 0 {
		t.Fatalf("open store: %v %v", err, warns)
	}
	e1 := newEnv(t, service.Options{Baselines: store1})
	recordRunBaseline(t, e1, "drifty", "cpu")
	e1.ts.Close()
	e1.srv.Close()

	store2, warns, err := baseline.OpenDirStore(dir)
	if err != nil || len(warns) > 0 {
		t.Fatalf("reopen store: %v %v", err, warns)
	}
	e2 := newEnv(t, service.Options{Baselines: store2, CheckPerturb: 0.8})
	resp, data := e2.get(t, "/v1/baselines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var lr service.BaselinesResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Baselines) != 1 || lr.Baselines[0].Name != "drifty" {
		t.Fatalf("restarted server lost the baseline: %+v", lr.Baselines)
	}

	_, data = e2.post(t, "/v1/check", service.CheckRequest{Name: "drifty"})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone || job.Check == nil {
		t.Fatalf("check job = %+v", job)
	}
	rep := job.Check
	if rep.Verdict != baseline.VerdictFail {
		t.Fatalf("verdict = %q, want fail", rep.Verdict)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("fail verdict carries no violations")
	}
	if !strings.Contains(rep.Violations[0], "margin") {
		t.Errorf("violation does not name its margin: %q", rep.Violations[0])
	}
	var sawGBps bool
	for _, m := range rep.Metrics {
		if m.Name == "gbps[copy]" {
			sawGBps = true
			if m.Verdict != baseline.VerdictFail || m.Margin <= 0 {
				t.Errorf("gbps[copy] = %+v, want fail with positive margin", m)
			}
		}
	}
	if !sawGBps {
		t.Error("report does not cover gbps[copy]")
	}
	if rep.DriftRatio <= 1 {
		t.Errorf("drift ratio = %g, want > 1", rep.DriftRatio)
	}

	_, data = e2.get(t, "/v1/metrics")
	if !strings.Contains(string(data), `mpstream_baseline_checks_total{verdict="fail"} 1`) {
		t.Error("fail verdict not visible in /v1/metrics")
	}

	// The alert feed replays the non-pass verdict as NDJSON.
	resp, data = e2.get(t, "/v1/baselines/alerts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alerts: status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("alerts = %d lines, want 1: %s", len(lines), data)
	}
	var alert service.Alert
	if err := json.Unmarshal([]byte(lines[0]), &alert); err != nil {
		t.Fatal(err)
	}
	if alert.Seq != 1 || alert.Job != job.ID || alert.Report.Verdict != baseline.VerdictFail {
		t.Errorf("alert = %+v", alert)
	}

	// A tolerance override that disables every band turns the same
	// drifted measurement into a pass with no judged metrics.
	_, data = e2.post(t, "/v1/check", service.CheckRequest{
		Name:      "drifty",
		Tolerance: &baseline.Tolerance{GBpsFrac: -1, NsFrac: -1, KneeFrac: -1, RungFrac: -1},
	})
	job = decodeJob(t, data)
	if job.Check == nil || job.Check.Verdict != baseline.VerdictPass || len(job.Check.Metrics) != 0 {
		t.Errorf("band-disabled check = %+v", job.Check)
	}
}

// TestCheckSurfacePartialVerdict: a surface check that hits its
// deadline mid-ladder still verdicts the rungs it measured, tagged
// partial, and lands canceled like every other partial job.
func TestCheckSurfacePartialVerdict(t *testing.T) {
	e := surfEnv(t, service.Options{Workers: 1})
	// Record the full default gpu surface (large enough that a 40ms
	// deadline expires mid-ladder on the re-check).
	_, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu"})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("surface job = %+v", job)
	}
	resp, data := e.post(t, "/v1/baselines", service.BaselineRequest{Name: "gpu-surface", FromJob: job.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record: status %d: %s", resp.StatusCode, data)
	}

	_, data = e.post(t, "/v1/check", service.CheckRequest{Name: "gpu-surface", TimeoutMS: 40})
	job = decodeJob(t, data)
	switch job.Status {
	case service.StatusCanceled:
		if job.StopReason != runstate.Deadline {
			t.Errorf("stop_reason = %q", job.StopReason)
		}
		if job.Check == nil {
			t.Fatal("partial check carries no report")
		}
		if !job.Check.Partial {
			t.Error("report of a deadlined check must be tagged partial")
		}
		if job.Check.Verdict != baseline.VerdictPass {
			t.Errorf("identical partial re-measurement verdict = %q, violations %v",
				job.Check.Verdict, job.Check.Violations)
		}
		if job.Surface == nil || job.Surface.Stopped != runstate.Deadline {
			t.Errorf("partial surface missing its stopped tag: %+v", job.Surface)
		}
	case service.StatusDone:
		// A very fast machine can finish the ladder inside the deadline;
		// the partial path just was not exercised.
		t.Log("check finished inside the deadline; partial path not exercised")
	default:
		t.Fatalf("check job = status %q error %q", job.Status, job.Error)
	}
}

// TestCheckSurfacePass: a full surface re-check on the deterministic
// simulator reproduces the reference exactly, covering the knee, idle
// latency and per-rung families.
func TestCheckSurfacePass(t *testing.T) {
	e := surfEnv(t, service.Options{})
	cfg := smallSurface()
	_, data := e.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu", Config: &cfg})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("surface job = %+v", job)
	}
	resp, data := e.post(t, "/v1/baselines", service.BaselineRequest{Name: "gpu-small", FromJob: job.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record: status %d: %s", resp.StatusCode, data)
	}
	_, data = e.post(t, "/v1/check", service.CheckRequest{Name: "gpu-small"})
	job = decodeJob(t, data)
	if job.Status != service.StatusDone || job.Check == nil {
		t.Fatalf("check job = %+v", job)
	}
	if job.Check.Verdict != baseline.VerdictPass || job.Check.Partial {
		t.Errorf("report = verdict %q partial %v, violations %v",
			job.Check.Verdict, job.Check.Partial, job.Check.Violations)
	}
	families := map[string]bool{}
	for _, m := range job.Check.Metrics {
		name, _, _ := strings.Cut(m.Name, "[")
		families[name] = true
	}
	for _, want := range []string{"knee.gbps", "knee.rate", "idle.ns", "rung.gbps"} {
		if !families[want] {
			t.Errorf("family %s missing from report (got %v)", want, families)
		}
	}
}

// TestCheckEventReplay: a subscriber arriving after a check finished
// still gets the full NDJSON stream, ending in a result event that
// embeds the report.
func TestCheckEventReplay(t *testing.T) {
	e := newEnv(t, service.Options{})
	recordRunBaseline(t, e, "replay", "cpu")
	_, data := e.post(t, "/v1/check", service.CheckRequest{Name: "replay"})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("check job = %+v", job)
	}

	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []service.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("replay = %d events, want at least state+point+result", len(events))
	}
	var sawPoint bool
	for _, ev := range events {
		if ev.Type == service.EventPoint && ev.Point != nil && ev.Point.Label == "check:replay" {
			sawPoint = true
		}
	}
	if !sawPoint {
		t.Error("replay missing the check's point event")
	}
	last := events[len(events)-1]
	if last.Type != service.EventResult || last.Result == nil {
		t.Fatalf("last event = %+v, want the result", last)
	}
	if last.Result.Check == nil || last.Result.Check.Verdict != baseline.VerdictPass {
		t.Errorf("result event check = %+v", last.Result.Check)
	}
}

// TestSentinel: with -check-interval the server re-checks registered
// baselines on its own, and the verdicts land in the monitor state.
func TestSentinel(t *testing.T) {
	e := newEnv(t, service.Options{CheckInterval: 20 * time.Millisecond})
	recordRunBaseline(t, e, "watched", "cpu")
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := e.get(t, "/v1/baselines/watched")
		var bv service.BaselineResponse
		if err := json.Unmarshal(data, &bv); err != nil {
			t.Fatal(err)
		}
		if lc := bv.Baseline.LastCheck; lc != nil {
			if lc.Verdict != baseline.VerdictPass {
				t.Errorf("sentinel verdict = %q, violations %v", lc.Verdict, lc.Violations)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sentinel never produced a check verdict")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBaselineBadRequests covers the validation surface of the
// recording and check endpoints.
func TestBaselineBadRequests(t *testing.T) {
	e := newEnv(t, service.Options{})
	cases := []struct {
		name string
		body service.BaselineRequest
	}{
		{"no source", service.BaselineRequest{Name: "x", Target: "cpu"}},
		{"bad name", service.BaselineRequest{Name: "no spaces!", FromJob: "j000001"}},
		{"unknown job", service.BaselineRequest{Name: "x", FromJob: "j999999"}},
	}
	for _, tc := range cases {
		resp, _ := e.post(t, "/v1/baselines", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, _ := e.post(t, "/v1/check", service.CheckRequest{Name: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown baseline check: status %d, want 404", resp.StatusCode)
	}
}

// TestCheckObeysSubmitLimits: a stored baseline whose configuration
// exceeds the server's resource limits is refused when a check is
// submitted, exactly like the equivalent /v1/run or /v1/surface
// request. Recording does not enforce the limits, so the check
// submission must, before any simulation.
func TestCheckObeysSubmitLimits(t *testing.T) {
	e := surfEnv(t, service.Options{})

	cfg := smallConfig()
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	run := decodeJob(t, data)
	if run.Status != service.StatusDone || run.Result == nil {
		t.Fatalf("run job = %+v", run)
	}
	manyReps := cfg
	manyReps.NTimes = service.DefaultMaxNTimes + 1
	resp, data := e.post(t, "/v1/baselines", service.BaselineRequest{
		Name: "run-over", Target: "cpu", Result: run.Result, Config: &manyReps,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record run baseline: status %d: %s", resp.StatusCode, data)
	}

	scfg := smallSurface()
	_, data = e.post(t, "/v1/surface", service.SurfaceRequest{Target: "gpu", Config: &scfg})
	surf := decodeJob(t, data)
	if surf.Status != service.StatusDone || surf.Surface == nil {
		t.Fatalf("surface job = %+v", surf)
	}
	longLadder := scfg
	longLadder.Rates = make([]float64, service.DefaultMaxSurfacePoints+1)
	for i := range longLadder.Rates {
		longLadder.Rates[i] = float64(i+1) / float64(len(longLadder.Rates))
	}
	resp, data = e.post(t, "/v1/baselines", service.BaselineRequest{
		Name: "surface-over", Target: "gpu", Surface: surf.Surface, SurfaceConfig: &longLadder,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record surface baseline: status %d: %s", resp.StatusCode, data)
	}

	for _, name := range []string{"run-over", "surface-over"} {
		resp, data := e.post(t, "/v1/check", service.CheckRequest{Name: name})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("check %s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
	}
	_, data = e.get(t, "/v1/jobs")
	var jobs service.JobsResponse
	if err := json.Unmarshal(data, &jobs); err != nil {
		t.Fatal(err)
	}
	if jobs.Total != 2 {
		t.Errorf("%d jobs retained, want only the two measurements (refused checks must not enqueue)", jobs.Total)
	}
}
