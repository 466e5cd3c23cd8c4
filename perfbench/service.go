package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/service"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// request is one HTTP request of a workload: POST /v1/<kind> with body.
type request struct {
	kind string // run, sweep, optimize or surface
	body []byte
}

// key names the request for the reference check.
func (r request) key() string { return r.kind + " " + string(r.body) }

func parseKey(key string) (request, error) {
	kind, body, ok := strings.Cut(key, " ")
	if !ok {
		return request{}, fmt.Errorf("malformed request key %q", key)
	}
	return request{kind: kind, body: []byte(body)}, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

// viewDigest digests the result a finished job view carries for its
// request kind, and reports a job that did not finish as an error.
func viewDigest(kind string, v service.View) (string, error) {
	if v.Status != service.StatusDone {
		return "", fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	var out any
	switch kind {
	case "run":
		out = v.Result
	case "sweep":
		out = v.Sweep
	case "optimize":
		out = v.Optimize
	case "surface":
		out = v.Surface
	}
	if out == nil {
		return "", fmt.Errorf("job %s carries no %s result", v.ID, kind)
	}
	return core.DigestJSON(out), nil
}

// node is one service.Server listening on a loopback port.
type node struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startNode(opts service.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: service.New(opts), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.hs = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close stops serving, waits for the serve loop, then stops the server.
func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
	n.srv.Close()
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// ready waits for a node's health endpoint to answer.
func ready(c *http.Client, base string) error {
	resp, err := c.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/v1/healthz: %s", base, resp.Status)
	}
	return nil
}

// reply is a finished HTTP request.
type reply struct {
	view  service.View
	bytes int
	rtt   time.Duration
}

// post sends one request and decodes the job view it returns.
func post(c *http.Client, base string, r request) (reply, error) {
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/"+r.kind, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	rp := reply{bytes: len(body), rtt: time.Since(t0)}
	if err != nil {
		return rp, err
	}
	if resp.StatusCode/100 != 2 {
		return rp, fmt.Errorf("POST /v1/%s: %s: %s", r.kind, resp.Status, bytes.TrimSpace(body))
	}
	var jr service.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return rp, fmt.Errorf("POST /v1/%s: %w", r.kind, err)
	}
	rp.view = jr.Job
	return rp, nil
}

// jobSpans fetches a finished job's span tree and flattens it.
func jobSpans(c *http.Client, base, id string) ([]obs.Span, error) {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("trace of job %s: %s", id, resp.Status)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		return nil, err
	}
	var spans []obs.Span
	var walk func(ns []*obs.TraceNode)
	walk = func(ns []*obs.TraceNode) {
		for _, n := range ns {
			spans = append(spans, n.Span)
			walk(n.Children)
		}
	}
	walk(tv.Roots)
	return spans, nil
}

// traceReply records a reply's service and HTTP numbers and the
// program's own spans for the job.
func traceReply(tr *tracer, c *http.Client, base, kind string, rp reply) []obs.Span {
	tr.addMS("http.rtt_ms."+kind, rp.rtt)
	tr.add("http.resp_kb", float64(rp.bytes)/1024)
	if t := rp.view.Timing; t != nil {
		tr.add("service.queue_ms", t.QueueMS)
		tr.add("service.run_ms", t.RunMS)
		tr.add("service.overhead_ms", ms(rp.rtt)-t.RunMS)
	}
	spans, err := jobSpans(c, base, rp.view.ID)
	if err != nil {
		return nil
	}
	addSpans(tr, spans)
	return spans
}

// --- http-dse --------------------------------------------------------

// The request mixes are stratified: every seed draws the same number of
// requests of each kind, target and size class, so a pass costs about
// the same whatever the seed. The seed picks the cost-neutral details
// (vector widths of contiguous walks, scalars, sweep grids, search
// strategies and seeds) and the order.

// dseClients is the number of closed-loop clients.
const dseClients = 2

var (
	vecWidths  = []int{1, 2, 4, 8, 16}
	unrolls    = []int{1, 2, 4}
	strategies = []string{"random", "hillclimb", "anneal"}
	scalars    = []float64{2, 3, 5}
)

// pick draws k distinct elements of xs, keeping their order.
func pick(rng *rand.Rand, xs []int, k int) []int {
	idx := rng.Perm(len(xs))[:k]
	sort.Ints(idx)
	out := make([]int, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// benchConfig is a verified configuration with seeded cost-neutral
// details: the scalar, and the vector width of a contiguous walk.
func benchConfig(rng *rand.Rand, ops []kernel.Op, bytes int64, pat mem.Pattern) core.Config {
	cfg := core.DefaultConfig()
	cfg.Ops = ops
	cfg.ArrayBytes = bytes
	cfg.Pattern = pat
	cfg.NTimes = 2
	cfg.Scalar = scalars[rng.Intn(len(scalars))]
	if pat.Kind == mem.Contiguous {
		cfg.VecWidth = vecWidths[rng.Intn(len(vecWidths))]
	}
	return cfg
}

// dseDistinct draws the distinct requests of an http-dse pass: per
// target three runs (all four kernels at 256 KB, copy at 1 MB, a
// strided copy at 64 KB), a 6-point sweep, a 6-evaluation optimize and
// a small surface.
func dseDistinct(rng *rand.Rand, ids []string) []request {
	copyOp := kernel.Copy
	copyOnly := []kernel.Op{kernel.Copy}
	var reqs []request
	for _, id := range ids {
		for _, r := range []struct {
			ops   []kernel.Op
			bytes int64
			pat   mem.Pattern
		}{
			{kernel.Ops(), 256 << 10, mem.ContiguousPattern()},
			{copyOnly, 1 << 20, mem.ContiguousPattern()},
			{copyOnly, 64 << 10, mem.StridedPattern(4)},
		} {
			cfg := benchConfig(rng, r.ops, r.bytes, r.pat)
			reqs = append(reqs, request{"run", mustJSON(service.RunRequest{Target: id, Config: &cfg})})
		}
		base := benchConfig(rng, copyOnly, 256<<10, mem.ContiguousPattern())
		base.VecWidth = 1
		space := dse.Space{VecWidths: pick(rng, vecWidths, 3), Unrolls: pick(rng, unrolls, 2)}
		reqs = append(reqs, request{"sweep", mustJSON(service.SweepRequest{Target: id, Base: &base, Space: space, Op: &copyOp})})
		base = benchConfig(rng, copyOnly, 64<<10, mem.ContiguousPattern())
		base.VecWidth = 1
		reqs = append(reqs, request{"optimize", mustJSON(service.OptimizeRequest{
			Target: id, Base: &base, Op: &copyOp,
			Space:    dse.Space{VecWidths: vecWidths, Unrolls: unrolls},
			Strategy: strategies[rng.Intn(len(strategies))], Budget: 6, Seed: rng.Int63n(1000),
		})})
		cfg := surface.Config{
			Patterns: []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16)},
			RWRatios: []float64{1, 0.5}, Rates: []float64{0.25, 0.75, 1},
			ArrayBytes: 1 << 20, WindowTxns: 2048, ProbeHops: 64,
		}
		reqs = append(reqs, request{"surface", mustJSON(service.SurfaceRequest{Target: id, Config: &cfg})})
	}
	return reqs
}

// dseRepeatShare is the share of distinct requests sent a second time.
// Repeats then make up 2/5 of a pass: about half, yet few enough that
// the median request is one that computes, not one on the edge between
// cache hits and computations.
const dseRepeatShare = 2.0 / 3

// dseRequestMix is the seeded request sequence: every distinct request
// once, and a seeded two thirds of them a second time, in a seeded
// order, so cache hits and single-flight joins sit beside misses.
func dseRequestMix(seed int64, ids []string) []request {
	rng := rand.New(rand.NewSource(seed))
	distinct := dseDistinct(rng, ids)
	order := rng.Perm(len(distinct))
	repeats := int(dseRepeatShare * float64(len(distinct)))
	order = append(order, order[:repeats]...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	reqs := make([]request, len(order))
	for i, j := range order {
		reqs[i] = distinct[j]
	}
	return reqs
}

// workloadTargets are the targets a workload spreads its requests over;
// the smoke-sized runs use one.
func workloadTargets(minimal bool) []string {
	if minimal {
		return targets.IDs()[2:3]
	}
	return targets.IDs()
}

// httpDSE is one in-process server with result caches on, driven by
// dseClients closed-loop clients over loopback.
type httpDSE struct {
	node   *node
	client *http.Client
	reqs   []request
}

func newHTTPDSE(o options) (fixture, error) {
	nd, err := startNode(service.Options{Workers: simThreads})
	if err != nil {
		return nil, err
	}
	c := newClient(dseClients)
	if err := ready(c, nd.base); err != nil {
		nd.close()
		return nil, err
	}
	return &httpDSE{node: nd, client: c, reqs: dseRequestMix(o.seed, workloadTargets(o.minimal))}, nil
}

func (h *httpDSE) close() {
	h.client.CloseIdleConnections()
	h.node.close()
}

func (h *httpDSE) pass(tr *tracer) []unit {
	units := make([]unit, len(h.reqs))
	runs := newRunSpans()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < dseClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(h.reqs) {
					return
				}
				units[i] = h.do(tr, runs, h.reqs[i])
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		st := h.node.srv.CacheStats()
		if lookups := st.Hits + st.Misses; lookups > 0 {
			tr.set("service.cache_hit_rate", float64(st.Hits)/float64(lookups))
		}
		runs.replay(tr)
	}
	return units
}

// do sends one request and, on a traced pass, records its layers.
func (h *httpDSE) do(tr *tracer, runs *runSpans, r request) unit {
	rp, err := post(h.client, h.node.base, r)
	u := unit{kind: r.kind, key: r.key(), latency: rp.rtt, err: err}
	if err != nil {
		return u
	}
	u.digest, u.err = viewDigest(r.kind, rp.view)
	if tr == nil || u.err != nil {
		return u
	}
	spans := traceReply(tr, h.client, h.node.base, r.kind, rp)
	if o := rp.view.Optimize; o != nil {
		tr.add("search.evals", float64(o.Evaluations))
	}
	if r.kind == "sweep" || r.kind == "optimize" {
		tr.add("search.cached_points", float64(rp.view.CachedPoints))
	}
	if r.kind == "run" {
		for _, sp := range spans {
			if sp.Name == "run.eval" {
				runs.add(r, sp.Duration)
			}
		}
	}
	return u
}

// runSpans collects the run.eval span of each distinct /v1/run of a
// pass: whichever copy of a repeated request computed (the other was
// served from the cache or joined it in flight).
type runSpans struct {
	mu   sync.Mutex
	runs map[string]time.Duration
}

func newRunSpans() *runSpans { return &runSpans{runs: make(map[string]time.Duration)} }

func (s *runSpans) add(r request, d time.Duration) {
	s.mu.Lock()
	s.runs[string(r.body)] = max(s.runs[string(r.body)], d)
	s.mu.Unlock()
}

// replay queues the layer replay of every distinct run once, in a fixed
// order, so the simulated counts do not depend on which copy computed.
func (s *runSpans) replay(tr *tracer) {
	bodies := make([]string, 0, len(s.runs))
	for b := range s.runs {
		bodies = append(bodies, b)
	}
	sort.Strings(bodies)
	for _, b := range bodies {
		var rr service.RunRequest
		if err := json.Unmarshal([]byte(b), &rr); err != nil || rr.Config == nil {
			continue
		}
		dev, err := targets.ByID(rr.Target)
		if err != nil {
			continue
		}
		run := s.runs[b]
		tr.addMS("core.run_ms", run)
		tr.replay(func() { replayRun(tr, dev, *rr.Config) })
	}
}

// --- fleet-sweep -----------------------------------------------------

// fleetWorkers is the fleet size; each worker runs one job at a time.
const fleetWorkers = 2

// fleetRequests draws the seeded sweep grids: per target, one at 64 KB
// and one at 256 KB, each 8 points (four vector widths by two unroll
// factors), in a seeded order.
func fleetRequests(seed int64, ids []string) []request {
	rng := rand.New(rand.NewSource(seed))
	copyOp := kernel.Copy
	var reqs []request
	for _, id := range ids {
		for _, bytes := range []int64{64 << 10, 256 << 10} {
			base := benchConfig(rng, []kernel.Op{kernel.Copy}, bytes, mem.ContiguousPattern())
			base.VecWidth = 1
			space := dse.Space{VecWidths: pick(rng, vecWidths, 4), Unrolls: pick(rng, unrolls, 2)}
			reqs = append(reqs, request{"sweep", mustJSON(service.SweepRequest{Target: id, Base: &base, Space: space, Op: &copyOp})})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// fleet is a coordinator and fleetWorkers workers in one process, caches
// off, with one client submitting sweeps through the coordinator.
type fleet struct {
	coord   *cluster.Coordinator
	head    *node
	workers []*node
	client  *http.Client
	reqs    []request
}

// fleetTTL keeps registrations alive for a whole run without heartbeats.
const fleetTTL = 10 * time.Minute

func newFleetSweep(o options) (fixture, error) {
	f := &fleet{
		coord:  cluster.New(cluster.Options{HeartbeatTTL: fleetTTL}),
		client: newClient(1),
		reqs:   fleetRequests(o.seed, workloadTargets(o.minimal)),
	}
	var err error
	if f.head, err = startNode(service.Options{Workers: 1, CacheEntries: -1, Cluster: f.coord, Origin: "coordinator"}); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		w, err := startNode(service.Options{Workers: 1, CacheEntries: -1, Origin: id})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.coord.Register(cluster.WorkerInfo{ID: id, Addr: w.base, Targets: targets.IDs(), Capacity: 1})
	}
	if err := ready(f.client, f.head.base); err != nil {
		f.close()
		return nil, err
	}
	if alive, _ := f.coord.Counts(); alive != fleetWorkers {
		f.close()
		return nil, fmt.Errorf("fleet has %d alive workers, want %d", alive, fleetWorkers)
	}
	return f, nil
}

func (f *fleet) close() {
	f.client.CloseIdleConnections()
	if f.head != nil {
		f.head.close()
	}
	for _, w := range f.workers {
		w.close()
	}
	f.coord.Close()
}

func (f *fleet) pass(tr *tracer) []unit {
	before := f.coord.Stats()
	units := make([]unit, 0, len(f.reqs))
	for _, r := range f.reqs {
		rp, err := post(f.client, f.head.base, r)
		u := unit{kind: "sweep", key: r.key(), latency: rp.rtt, err: err}
		if err == nil {
			u.digest, u.err = viewDigest(r.kind, rp.view)
		}
		if tr != nil && u.err == nil {
			traceReply(tr, f.client, f.head.base, r.kind, rp)
		}
		units = append(units, u)
	}
	if tr != nil {
		after := f.coord.Stats()
		tr.add("cluster.shards", float64(after.ShardsDone-before.ShardsDone))
		tr.add("cluster.retried", float64(after.ShardsRetried-before.ShardsRetried))
		tr.add("cluster.stolen", float64(after.ShardsStolen-before.ShardsStolen))
		tr.add("cluster.speculated", float64(after.ShardsSpeculated-before.ShardsSpeculated))
		tr.set("cluster.worker_skew", workerSkew(f.coord.Workers()))
	}
	return units
}

// workerSkew is the busiest worker's completed shards over the mean.
func workerSkew(ws []cluster.WorkerView) float64 {
	var sum, most uint64
	for _, w := range ws {
		sum += w.ShardsDone
		most = max(most, w.ShardsDone)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(ws)) / float64(sum)
}

// --- reference -------------------------------------------------------

// serviceReferee answers every request from a standalone server with
// its caches off, called in-process: a fleet sweep must be
// byte-identical to a single node, and a cached or joined reply to a
// fresh computation.
type serviceReferee struct {
	srv  *service.Server
	memo map[string]string
}

func newServiceReferee(options) (referee, error) {
	return &serviceReferee{
		srv:  service.New(service.Options{Workers: 1, CacheEntries: -1, DisableMetrics: true}),
		memo: make(map[string]string),
	}, nil
}

func (r *serviceReferee) reference(key string) (string, error) {
	if d, ok := r.memo[key]; ok {
		return d, nil
	}
	req, err := parseKey(key)
	if err != nil {
		return "", err
	}
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+req.kind, bytes.NewReader(req.body)))
	if rec.Code/100 != 2 {
		return "", fmt.Errorf("reference server: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var jr service.JobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
		return "", err
	}
	d, err := viewDigest(req.kind, jr.Job)
	if err != nil {
		return "", fmt.Errorf("reference server: %w", err)
	}
	r.memo[key] = d
	return d, nil
}

func (r *serviceReferee) close() { r.srv.Close() }
