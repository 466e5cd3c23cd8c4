package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mpstream/internal/baseline"
	"mpstream/internal/obs"
)

// Client speaks the service's HTTP JSON API to coordinators and
// workers. The zero value is not usable; create with NewClient.
type Client struct {
	// HTTP performs the requests. It must not set an overall timeout:
	// awaiting a shard's event stream legitimately takes as long as the
	// shard runs. Per-call bounds come from contexts.
	HTTP *http.Client
}

// NewClient builds a client around http.DefaultTransport.
func NewClient() *Client {
	return &Client{HTTP: &http.Client{}}
}

// errorBody is the service's uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

// StatusError is a well-formed non-2xx response from a live server —
// proof the worker is up and talking, as opposed to a transport-level
// failure (connection refused, broken stream) that suggests the
// worker is gone. The scheduler retries both, but only transport
// failures mark a worker down.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// statusErr builds the StatusError for a non-2xx response, decoding
// the service error body when present.
func statusErr(resp *http.Response, method, url string) *StatusError {
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	if eb.Error == "" {
		eb.Error = resp.Status
	}
	return &StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("cluster: %s %s: %s", method, url, eb.Error)}
}

// jobEnvelope wraps every job-bearing response body.
type jobEnvelope struct {
	Job JobView `json:"job"`
}

// stampTrace copies the trace ID and parent span carried by req's
// context onto its headers, so the receiving server's job joins the
// caller's trace.
func stampTrace(req *http.Request) {
	if trace := obs.TraceID(req.Context()); trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	if parent := obs.SpanParent(req.Context()); parent != "" {
		req.Header.Set(obs.SpanHeader, parent)
	}
}

// do sends one JSON request and decodes the response into out (when
// non-nil). Non-2xx responses decode the service error body into the
// returned error.
func (c *Client) do(ctx context.Context, method, url string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: encode %s %s: %w", method, url, err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", method, url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	stampTrace(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return statusErr(resp, method, url)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: decode %s %s: %w", method, url, err)
	}
	return nil
}

// Register announces a worker to the coordinator at coord.
func (c *Client) Register(ctx context.Context, coord string, info WorkerInfo) (RegisterResponse, error) {
	var out RegisterResponse
	err := c.do(ctx, http.MethodPost, coord+"/v1/cluster/register", info, &out)
	return out, err
}

// Heartbeat refreshes a worker's registration; known false means the
// coordinator no longer knows the worker and it must re-register.
func (c *Client) Heartbeat(ctx context.Context, coord, id string) (known bool, err error) {
	var out HeartbeatResponse
	if err := c.do(ctx, http.MethodPost, coord+"/v1/cluster/heartbeat", HeartbeatRequest{ID: id}, &out); err != nil {
		return false, err
	}
	return out.Known, nil
}

// Job polls one job's current view.
func (c *Client) Job(ctx context.Context, worker, id string) (JobView, error) {
	var out jobEnvelope
	err := c.do(ctx, http.MethodGet, worker+"/v1/jobs/"+id, nil, &out)
	return out.Job, err
}

// Cancel requests cancellation of a worker job. It runs under its own
// short deadline — cancellation fan-out must not inherit the already-
// canceled fleet context.
func (c *Client) Cancel(worker, id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return c.do(ctx, http.MethodDelete, worker+"/v1/jobs/"+id, nil, nil)
}

// CancelAndFetch cancels a job and collects its terminal view (the
// partial results a canceled job carries). It runs under its own
// deadline — the caller's context is typically already dead — and the
// deadline is generous: cancellation is only honored between
// evaluation units, and one unit (a big sweep point, a long surface
// rung) can legitimately run for a minute or more on a loaded worker.
// Giving up early would silently drop the shard's partial results
// from the merged canceled view.
func (c *Client) CancelAndFetch(server, id string) (JobView, error) {
	if err := c.Cancel(server, id); err != nil {
		return JobView{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for {
		view, err := c.Job(ctx, server, id)
		if err != nil {
			return JobView{}, err
		}
		if view.Terminal() {
			return view, nil
		}
		t := time.NewTimer(20 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return view, fmt.Errorf("cluster: job %s still running after cancel", id)
		case <-t.C:
		}
	}
}

// Submit posts one job request (any of the request types in this
// package) to a server path like "/v1/sweep" and returns the job view
// — terminal for a synchronous submission, queued for an async one.
// The coordinator submits its shards and remote evaluations through
// it; a synchronous /v1/run keeps the connection open for the run, and
// a canceled ctx abandons the request.
func (c *Client) Submit(ctx context.Context, server, path string, req any) (JobView, error) {
	var out jobEnvelope
	err := c.do(ctx, http.MethodPost, server+path, req, &out)
	return out.Job, err
}

// SubmitAndWait submits a job (async requests are followed over their
// event stream until terminal) and returns the final view. When ctx is
// canceled mid-wait — a CLI Ctrl-C — the job is canceled server-side
// and its terminal view, carrying whatever partial results it
// collected, is returned instead of an error.
func (c *Client) SubmitAndWait(ctx context.Context, server, path string, req any, onPoint func(PointEvent)) (JobView, error) {
	view, err := c.Submit(ctx, server, path, req)
	if err != nil {
		return view, err
	}
	if view.Terminal() {
		return view, nil
	}
	final, err := c.AwaitJob(ctx, server, view.ID, onPoint)
	if err != nil && ctx.Err() != nil {
		return c.CancelAndFetch(server, view.ID)
	}
	return final, err
}

// workerEvent is the subset of the service's NDJSON event record the
// coordinator consumes while awaiting a shard.
type workerEvent struct {
	Type   string      `json:"type"`
	Point  *PointEvent `json:"point,omitempty"`
	Result *JobView    `json:"result,omitempty"`
}

// maxEventLine bounds one NDJSON event record; result events embed the
// full job view, which for a big shard can run to megabytes.
const maxEventLine = 64 << 20

// AwaitJob follows a worker job's NDJSON event stream until its
// terminal result event and returns the final view. onPoint — when
// non-nil — sees every point event as it streams, which is how a fleet
// job's merged event stream and aggregate progress stay live. A stream
// that ends without a result event (worker died mid-job) is an error;
// the caller retries the shard elsewhere.
func (c *Client) AwaitJob(ctx context.Context, worker, id string, onPoint func(PointEvent)) (JobView, error) {
	url := worker + "/v1/jobs/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return JobView{}, fmt.Errorf("cluster: await %s: %w", url, err)
	}
	stampTrace(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return JobView{}, fmt.Errorf("cluster: await %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobView{}, statusErr(resp, http.MethodGet, url)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxEventLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev workerEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return JobView{}, fmt.Errorf("cluster: await %s: bad event: %w", url, err)
		}
		switch ev.Type {
		case "point":
			if onPoint != nil && ev.Point != nil {
				onPoint(*ev.Point)
			}
		case "result":
			if ev.Result == nil {
				return JobView{}, fmt.Errorf("cluster: await %s: result event without view", url)
			}
			return *ev.Result, nil
		}
	}
	if err := sc.Err(); err != nil {
		return JobView{}, fmt.Errorf("cluster: await %s: stream broke: %w", url, err)
	}
	return JobView{}, fmt.Errorf("cluster: await %s: stream ended without a result", url)
}

// Metrics scrapes a server's /v1/metrics exposition as plain text.
// The transport decompresses gzip transparently, so the body is
// always the uncompressed exposition.
func (c *Client) Metrics(ctx context.Context, addr string) (string, error) {
	url := addr + "/v1/metrics"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", fmt.Errorf("cluster: scrape %s: %w", url, err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", fmt.Errorf("cluster: scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", statusErr(resp, http.MethodGet, url)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("cluster: scrape %s: %w", url, err)
	}
	return string(b), nil
}

// JobTrace fetches a job's assembled span tree from
// GET /v1/jobs/{id}/trace — how the CLIs render a timeline after a
// server-side run.
func (c *Client) JobTrace(ctx context.Context, server, id string) (*obs.TraceView, error) {
	var out obs.TraceView
	if err := c.do(ctx, http.MethodGet, server+"/v1/jobs/"+id+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PrintTrace fetches a finished job's span timeline and renders it to
// w, under its own deadline so it still works after a Ctrl-C canceled
// the caller's context. A failed fetch is reported on w, prefixed with
// prog.
func (c *Client) PrintTrace(w io.Writer, server, id, prog string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tv, err := c.JobTrace(ctx, server, id)
	if err != nil {
		fmt.Fprintf(w, "%s: trace: %v\n", prog, err)
		return
	}
	obs.WriteTimeline(w, tv)
}

// Check asks a server to re-measure the named baseline, follows the
// check job to its end, and renders the drift report to w — indented
// JSON, or the text report. A fail verdict is returned as an error,
// which is how the CLIs exit nonzero on drift.
func (c *Client) Check(ctx context.Context, w io.Writer, server, name string, asJSON bool) error {
	req := CheckRequest{Name: name, Async: true}
	view, err := c.SubmitAndWait(ctx, strings.TrimRight(server, "/"), "/v1/check", req, nil)
	if err != nil {
		return err
	}
	if view.Status == "failed" {
		return fmt.Errorf("server: %s", view.Error)
	}
	rep := view.Check
	if rep == nil {
		return fmt.Errorf("server returned no check report (job %s %s)", view.ID, view.Status)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else if err := rep.WriteText(w); err != nil {
		return err
	}
	if rep.Verdict == baseline.VerdictFail {
		return fmt.Errorf("baseline %q drifted out of tolerance (%d violations)", name, len(rep.Violations))
	}
	return nil
}

// MeasureBaseline submits a measurement job (a run or surface request
// posted to path) to a server, follows it to its end, and records the
// finished job as the named baseline — the CLIs' -record-baseline.
func (c *Client) MeasureBaseline(ctx context.Context, server, path string, req any, name, target string) (baseline.Entry, error) {
	server = strings.TrimRight(server, "/")
	view, err := c.SubmitAndWait(ctx, server, path, req, nil)
	if err != nil {
		return baseline.Entry{}, err
	}
	if view.Status == "failed" {
		return baseline.Entry{}, fmt.Errorf("server: %s", view.Error)
	}
	if view.Status != "done" {
		return baseline.Entry{}, fmt.Errorf("measurement job %s ended %s; baseline not recorded", view.ID, view.Status)
	}
	var out struct {
		Baseline baseline.Entry `json:"baseline"`
	}
	err = c.do(ctx, http.MethodPost, server+"/v1/baselines",
		BaselineRequest{Name: name, Target: target, FromJob: view.ID}, &out)
	return out.Baseline, err
}

// probeHealth is the healthz subset a peer probe reads.
type probeHealth struct {
	Workers int `json:"workers"`
}

// probeTargets is the targets subset a peer probe reads.
type probeTargets struct {
	Targets []struct {
		ID string `json:"id"`
	} `json:"targets"`
}

// Probe interrogates a static peer's /v1/healthz and /v1/targets to
// synthesize the registration a dynamic worker would have sent.
func (c *Client) Probe(ctx context.Context, addr string) (WorkerInfo, error) {
	var h probeHealth
	if err := c.do(ctx, http.MethodGet, addr+"/v1/healthz", nil, &h); err != nil {
		return WorkerInfo{}, err
	}
	var t probeTargets
	if err := c.do(ctx, http.MethodGet, addr+"/v1/targets", nil, &t); err != nil {
		return WorkerInfo{}, err
	}
	info := WorkerInfo{ID: addr, Addr: addr, Capacity: h.Workers}
	for _, tgt := range t.Targets {
		info.Targets = append(info.Targets, tgt.ID)
	}
	return info, nil
}
