package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing.
//
// A Span is one timed step of a job: queue wait, a sweep point, a
// surface rung, a shard attempt on a remote worker. Spans share the
// job's trace ID and form a tree through parent span IDs; the tree
// crosses process boundaries because the coordinator stamps its
// current span ID onto outgoing shard requests (SpanHeader) and
// workers ship their recorded spans back piggybacked on the job view,
// so `GET /v1/jobs/{id}/trace` can render one merged timeline.
//
// Like the metrics instruments, everything here is nil-safe: a nil
// *Recorder (telemetry disabled) makes StartSpan and every ActiveSpan
// method a no-op, so instrumented code paths never branch on whether
// tracing is on.

// SpanHeader carries the parent span ID across HTTP hops
// (coordinator → worker), linking the worker's job spans under the
// coordinator's shard span. Validated like trace IDs.
const SpanHeader = "X-Mpstream-Span"

// DefaultSpanCapacity bounds the per-process span ring when no
// explicit capacity is configured.
const DefaultSpanCapacity = 16384

// Span is one recorded timed step. Start is wall-clock (UTC) for
// cross-process alignment; the duration is measured on the monotonic
// clock of the recording process, so individual spans never go
// negative even when the wall clock steps.
type Span struct {
	Trace    string            `json:"trace"`
	ID       string            `json:"id"`
	Parent   string            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Origin   string            `json:"origin,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// End returns the span's wall-clock end time.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// spanSeed randomizes span IDs across processes; the per-span cost is
// one atomic increment, not a crypto/rand read.
var spanSeed = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var spanSeq atomic.Uint64

// newSpanID mints a process-unique span ID. Multiplying the sequence
// by an odd constant is a bijection mod 2^64, so IDs never collide
// within a process; the random seed keeps processes apart.
func newSpanID() string {
	return fmt.Sprintf("%016x", spanSeed^(spanSeq.Add(1)*0x9e3779b97f4a7c15))
}

// SpanStore is a bounded ring of finished spans. When full, the
// oldest span is overwritten — tracing is a diagnostic window, not an
// archive, and the bound keeps a busy fleet from growing memory
// without limit.
type SpanStore struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	full  bool
	drops uint64
}

// NewSpanStore builds a ring holding at most capacity spans
// (DefaultSpanCapacity when capacity <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{buf: make([]Span, 0, capacity)}
}

func (s *SpanStore) add(sp Span) {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, sp)
	} else {
		s.buf[s.next] = sp
		s.full = true
		s.drops++
	}
	s.next = (s.next + 1) % cap(s.buf)
	s.mu.Unlock()
}

// Trace returns every stored span with the given trace ID, in
// recording order.
func (s *SpanStore) Trace(trace string) []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Span
	scan := func(sp Span) {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	if s.full {
		for _, sp := range s.buf[s.next:] {
			scan(sp)
		}
		for _, sp := range s.buf[:s.next] {
			scan(sp)
		}
	} else {
		for _, sp := range s.buf {
			scan(sp)
		}
	}
	return out
}

// Len reports the number of spans currently held.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Drops reports how many spans the ring has overwritten since
// creation — nonzero means Trace results are truncated.
func (s *SpanStore) Drops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Recorder hands spans to a store, stamping each with the process's
// origin label (worker ID or "coordinator"). A nil Recorder is valid
// and records nothing.
type Recorder struct {
	store  *SpanStore
	origin string
}

// NewRecorder builds a recorder with its own bounded store.
func NewRecorder(origin string, capacity int) *Recorder {
	return &Recorder{store: NewSpanStore(capacity), origin: origin}
}

// Ingest stores externally recorded spans (a worker's, shipped back
// on a shard result) verbatim — their origin identifies the worker.
func (r *Recorder) Ingest(spans ...Span) {
	if r == nil {
		return
	}
	for _, sp := range spans {
		if sp.Trace == "" || sp.ID == "" {
			continue
		}
		r.store.add(sp)
	}
}

// StoreLen reports the recorder's ring occupancy (0 on nil).
func (r *Recorder) StoreLen() int {
	if r == nil {
		return 0
	}
	return r.store.Len()
}

// StoreDrops reports how many spans the recorder's ring has
// overwritten (0 on nil).
func (r *Recorder) StoreDrops() uint64 {
	if r == nil {
		return 0
	}
	return r.store.Drops()
}

// Spans returns all recorded spans for a trace.
func (r *Recorder) Spans(trace string) []Span {
	if r == nil || trace == "" {
		return nil
	}
	return r.store.Trace(trace)
}

type (
	recorderKey   struct{}
	spanParentKey struct{}
)

// WithRecorder attaches a recorder to ctx so instrumented layers
// (dse, surface, cluster) can record spans without signature changes.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom reads the recorder from ctx (nil when absent).
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// WithSpanParent sets the span ID that new child spans — and
// downstream HTTP hops via SpanHeader — should parent to.
func WithSpanParent(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, spanParentKey{}, id)
}

// SpanParent reads the current parent span ID from ctx ("" if none).
func SpanParent(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(spanParentKey{}).(string)
	return id
}

// ActiveSpan is an in-flight span; End records it. All methods are
// nil-safe so callers never branch on whether tracing is enabled.
type ActiveSpan struct {
	rec   *Recorder
	span  Span
	mu    sync.Mutex
	ended bool
}

// StartSpan begins a span under the recorder and parent carried by
// ctx. The returned context carries the new span as parent for
// children; when ctx has no recorder the span is nil (no-op) and ctx
// is returned unchanged. attrs are alternating key/value pairs.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *ActiveSpan) {
	rec := RecorderFrom(ctx)
	if rec == nil {
		return ctx, nil
	}
	sp := &ActiveSpan{
		rec: rec,
		span: Span{
			Trace:  TraceID(ctx),
			ID:     newSpanID(),
			Parent: SpanParent(ctx),
			Name:   name,
			Origin: rec.origin,
			Start:  time.Now(),
		},
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.setAttr(attrs[i], attrs[i+1])
	}
	return WithSpanParent(ctx, sp.span.ID), sp
}

// ID returns the span's ID ("" on nil).
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.span.ID
}

func (s *ActiveSpan) setAttr(k, v string) {
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[k] = v
}

// SetAttr annotates the span; a no-op after End and on nil.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.setAttr(k, v)
	}
	s.mu.Unlock()
}

// End stamps the duration (monotonic) and records the span.
// Idempotent: only the first call records.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.span.Duration = time.Since(s.span.Start)
	s.span.Start = s.span.Start.UTC()
	sp := s.span
	s.mu.Unlock()
	s.rec.store.add(sp)
}

// --- tree assembly -------------------------------------------------

// TraceNode is a span plus its children, sorted by start time.
type TraceNode struct {
	Span
	Children []*TraceNode `json:"children,omitempty"`
}

// Descendants filters spans to the subtree rooted at rootID: the root
// span itself (when present) plus every span whose parent chain
// reaches rootID. Spans whose chain dead-ends elsewhere are dropped,
// so one process-wide store can serve per-job trees.
func Descendants(spans []Span, rootID string) []Span {
	if rootID == "" {
		return spans
	}
	parent := make(map[string]string, len(spans))
	for _, sp := range spans {
		parent[sp.ID] = sp.Parent
	}
	memo := make(map[string]bool, len(spans))
	var reaches func(id string, depth int) bool
	reaches = func(id string, depth int) bool {
		if id == rootID {
			return true
		}
		if v, ok := memo[id]; ok {
			return v
		}
		if depth > len(spans)+1 { // cycle guard on hostile ingested spans
			return false
		}
		p, ok := parent[id]
		v := false
		if ok && p != "" {
			v = reaches(p, depth+1)
		} else if !ok {
			v = false
		}
		memo[id] = v
		return v
	}
	var out []Span
	for _, sp := range spans {
		if reaches(sp.ID, 0) {
			out = append(out, sp)
		}
	}
	return out
}

// BuildTree links spans into trees. Spans whose parent is absent from
// the set become roots (a still-running ancestor has not recorded
// yet). Roots and children sort by start time, ties by ID.
func BuildTree(spans []Span) []*TraceNode {
	nodes := make(map[string]*TraceNode, len(spans))
	order := make([]*TraceNode, 0, len(spans))
	for _, sp := range spans {
		if _, dup := nodes[sp.ID]; dup {
			continue
		}
		n := &TraceNode{Span: sp}
		nodes[sp.ID] = n
		order = append(order, n)
	}
	var roots []*TraceNode
	for _, n := range order {
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range order {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*TraceNode) {
	sort.SliceStable(ns, func(i, j int) bool {
		if !ns[i].Start.Equal(ns[j].Start) {
			return ns[i].Start.Before(ns[j].Start)
		}
		return ns[i].ID < ns[j].ID
	})
}

// CriticalStep is one hop of a critical path (or the slowest-shard
// summary): a span reduced to name, origin, offset and duration.
type CriticalStep struct {
	Name     string            `json:"name"`
	Origin   string            `json:"origin,omitempty"`
	OffsetMS float64           `json:"offset_ms"`
	DurMS    float64           `json:"dur_ms"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func toStep(n *TraceNode, t0 time.Time) CriticalStep {
	return CriticalStep{
		Name:     n.Name,
		Origin:   n.Origin,
		OffsetMS: float64(n.Start.Sub(t0)) / float64(time.Millisecond),
		DurMS:    float64(n.Duration) / float64(time.Millisecond),
		Attrs:    n.Attrs,
	}
}

// CriticalPath walks from root to leaf, at each level descending into
// the child whose end time is latest — the chain of steps that bound
// the job's wall clock.
func CriticalPath(root *TraceNode) []CriticalStep {
	if root == nil {
		return nil
	}
	t0 := root.Start
	var path []CriticalStep
	n := root
	for steps := 0; n != nil && steps <= 1<<16; steps++ {
		path = append(path, toStep(n, t0))
		var last *TraceNode
		for _, c := range n.Children {
			if last == nil || c.Span.End().After(last.Span.End()) {
				last = c
			}
		}
		n = last
	}
	return path
}

// TraceSummary is the compact timing digest attached to a finished
// job view: wall/queue/run split, critical path, slowest shard.
type TraceSummary struct {
	WallMS       float64        `json:"wall_ms"`
	QueueMS      float64        `json:"queue_ms,omitempty"`
	RunMS        float64        `json:"run_ms,omitempty"`
	Spans        int            `json:"spans"`
	CriticalPath []CriticalStep `json:"critical_path,omitempty"`
	SlowestShard *CriticalStep  `json:"slowest_shard,omitempty"`
}

// slowestShard returns the longest completed shard attempt, if any.
func slowestShard(spans []Span, t0 time.Time) *CriticalStep {
	var best *Span
	for i := range spans {
		sp := &spans[i]
		if sp.Name != "shard.execute" || sp.Attrs["state"] != "done" {
			continue
		}
		if best == nil || sp.Duration > best.Duration {
			best = sp
		}
	}
	if best == nil {
		return nil
	}
	st := toStep(&TraceNode{Span: *best}, t0)
	return &st
}

// Summarize digests a job's span subtree (from Descendants) into the
// view-level timing summary. rootID names the job's root span.
func Summarize(spans []Span, rootID string) *TraceSummary {
	if len(spans) == 0 {
		return nil
	}
	roots := BuildTree(spans)
	var root *TraceNode
	for _, r := range roots {
		if r.Span.ID == rootID {
			root = r
			break
		}
	}
	if root == nil && len(roots) > 0 {
		root = roots[0]
	}
	if root == nil {
		return nil
	}
	sum := &TraceSummary{
		WallMS:       float64(root.Duration) / float64(time.Millisecond),
		Spans:        len(spans),
		CriticalPath: CriticalPath(root),
		SlowestShard: slowestShard(spans, root.Start),
	}
	for _, c := range root.Children {
		switch c.Name {
		case "job.queue":
			sum.QueueMS = float64(c.Duration) / float64(time.Millisecond)
		case "job.run":
			sum.RunMS = float64(c.Duration) / float64(time.Millisecond)
		}
	}
	return sum
}

// TraceView is the JSON payload of GET /v1/jobs/{id}/trace: the
// merged span tree plus derived summaries.
type TraceView struct {
	Job          string         `json:"job,omitempty"`
	Trace        string         `json:"trace"`
	SpanCount    int            `json:"span_count"`
	WallMS       float64        `json:"wall_ms"`
	Coverage     float64        `json:"coverage"`
	Origins      []string       `json:"origins,omitempty"`
	Roots        []*TraceNode   `json:"roots"`
	CriticalPath []CriticalStep `json:"critical_path,omitempty"`
	SlowestShard *CriticalStep  `json:"slowest_shard,omitempty"`
}

// NewTraceView assembles the endpoint payload from a job's span
// subtree. Coverage is the fraction of the root span's wall clock
// covered by the union of its direct children — with queue and run
// spans abutting, a healthy trace reads ~1.0.
func NewTraceView(job, trace string, spans []Span, rootID string) *TraceView {
	tv := &TraceView{Job: job, Trace: trace, SpanCount: len(spans)}
	tv.Roots = BuildTree(spans)
	origins := make(map[string]bool)
	for _, sp := range spans {
		if sp.Origin != "" {
			origins[sp.Origin] = true
		}
	}
	for o := range origins {
		tv.Origins = append(tv.Origins, o)
	}
	sort.Strings(tv.Origins)
	var root *TraceNode
	for _, r := range tv.Roots {
		if r.Span.ID == rootID {
			root = r
			break
		}
	}
	if root == nil && len(tv.Roots) > 0 {
		root = tv.Roots[0]
	}
	if root == nil {
		return tv
	}
	tv.WallMS = float64(root.Duration) / float64(time.Millisecond)
	tv.Coverage = coverage(root)
	tv.CriticalPath = CriticalPath(root)
	tv.SlowestShard = slowestShard(spans, root.Start)
	return tv
}

// coverage computes the union of root's direct children intervals as
// a fraction of root's own interval.
func coverage(root *TraceNode) float64 {
	if root.Duration <= 0 || len(root.Children) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(root.Children))
	for _, c := range root.Children {
		a, b := c.Start, c.Span.End()
		if a.Before(root.Start) {
			a = root.Start
		}
		if b.After(root.Span.End()) {
			b = root.Span.End()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return float64(covered) / float64(root.Duration)
}
