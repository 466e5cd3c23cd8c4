package obs

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// span builds a finished test span with millisecond-scale offsets from
// a fixed epoch so tree math is deterministic.
func span(trace, id, parent, name, origin string, startMS, durMS int, attrs ...string) Span {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sp := Span{
		Trace:    trace,
		ID:       id,
		Parent:   parent,
		Name:     name,
		Origin:   origin,
		Start:    epoch.Add(time.Duration(startMS) * time.Millisecond),
		Duration: time.Duration(durMS) * time.Millisecond,
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		if sp.Attrs == nil {
			sp.Attrs = map[string]string{}
		}
		sp.Attrs[attrs[i]] = attrs[i+1]
	}
	return sp
}

func TestSpanStoreRingBounds(t *testing.T) {
	s := NewSpanStore(4)
	for i := 0; i < 10; i++ {
		s.add(span("t", fmt.Sprintf("s%d", i), "", "n", "", i, 1))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (bounded ring)", s.Len())
	}
	got := s.Trace("t")
	if len(got) != 4 {
		t.Fatalf("Trace returned %d spans, want 4", len(got))
	}
	// Recording order is preserved and only the newest four survive.
	for i, sp := range got {
		if want := fmt.Sprintf("s%d", i+6); sp.ID != want {
			t.Errorf("span[%d].ID = %s, want %s", i, sp.ID, want)
		}
	}
	if s.drops != 6 {
		t.Errorf("drops = %d, want 6", s.drops)
	}
}

func TestStartSpanNilSafety(t *testing.T) {
	// No recorder in context: every handle is nil and every call a no-op.
	ctx, sp := StartSpan(context.Background(), "noop")
	if sp != nil {
		t.Fatal("StartSpan without recorder returned a live span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	sp.End()
	if id := sp.ID(); id != "" {
		t.Errorf("nil span ID = %q, want empty", id)
	}
	if p := SpanParent(ctx); p != "" {
		t.Errorf("nil span leaked a parent %q into ctx", p)
	}
	var r *Recorder
	if r.Spans("x") != nil {
		t.Error("nil recorder must report nothing")
	}
	r.Ingest(span("t", "a", "", "n", "", 0, 1)) // must not panic
}

func TestStartSpanRecordsTree(t *testing.T) {
	rec := NewRecorder("w7", 64)
	ctx := WithRecorder(WithTrace(context.Background(), "tr1"), rec)
	ctx, root := StartSpan(ctx, "job", "kind", "run")
	_, child := StartSpan(ctx, "job.run")
	child.SetAttr("status", "done")
	child.End()
	child.SetAttr("late", "ignored") // after End: dropped
	root.End()
	root.End() // idempotent: recorded once

	spans := rec.Spans("tr1")
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Recording order is end order: child first.
	if spans[0].Name != "job.run" || spans[1].Name != "job" {
		t.Fatalf("recorded names %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent %q != root ID %q", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Origin != "w7" || spans[1].Origin != "w7" {
		t.Errorf("origins = %q, %q, want w7", spans[0].Origin, spans[1].Origin)
	}
	if spans[0].Attrs["status"] != "done" {
		t.Errorf("child attrs = %v", spans[0].Attrs)
	}
	if _, ok := spans[0].Attrs["late"]; ok {
		t.Error("SetAttr after End mutated the recorded span")
	}
	if spans[1].Attrs["kind"] != "run" {
		t.Errorf("root attrs = %v", spans[1].Attrs)
	}
	if loc := spans[1].Start.Location(); loc != time.UTC {
		t.Errorf("recorded start in %v, want UTC", loc)
	}
}

func TestSpanIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := newSpanID()
		if seen[id] {
			t.Fatalf("duplicate span ID %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

// testTree is a two-process job trace: root job on the coordinator
// with queue+run children, the run fanning out one shard per worker,
// each shard carrying a worker-origin eval span.
func testTree() []Span {
	return []Span{
		span("t", "root", "", "job", "coordinator", 0, 100),
		span("t", "q", "root", "job.queue", "coordinator", 0, 10),
		span("t", "run", "root", "job.run", "coordinator", 10, 90),
		span("t", "sh0", "run", "shard.execute", "coordinator", 12, 40, "state", "done", "shard", "0"),
		span("t", "sh1", "run", "shard.execute", "coordinator", 12, 80, "state", "done", "shard", "1"),
		span("t", "ev0", "sh0", "run.eval", "w0", 14, 30),
		span("t", "ev1", "sh1", "run.eval", "w1", 14, 70),
		// A different trace's span must never leak into the tree.
		span("other", "x", "", "job", "coordinator", 0, 5),
	}
}

func TestDescendantsFiltersToSubtree(t *testing.T) {
	spans := testTree()
	got := Descendants(spans, "root")
	if len(got) != 7 {
		t.Fatalf("Descendants kept %d spans, want 7", len(got))
	}
	for _, sp := range got {
		if sp.Trace != "t" {
			t.Errorf("foreign span %s in subtree", sp.ID)
		}
	}
	if got := Descendants(spans, "sh1"); len(got) != 2 {
		t.Errorf("Descendants(sh1) = %d spans, want 2", len(got))
	}
	// A parent cycle must not hang the walk.
	cyc := []Span{
		span("t", "a", "b", "x", "", 0, 1),
		span("t", "b", "a", "y", "", 0, 1),
	}
	if got := Descendants(cyc, "zzz"); len(got) != 0 {
		t.Errorf("cyclic spans reached an absent root: %v", got)
	}
}

func TestBuildTreeAndCriticalPath(t *testing.T) {
	spans := Descendants(testTree(), "root")
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].ID != "root" {
		t.Fatalf("roots = %+v, want single job root", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root has %d children, want 2 (queue, run)", len(roots[0].Children))
	}
	// Children sort by start: queue before run.
	if roots[0].Children[0].Name != "job.queue" || roots[0].Children[1].Name != "job.run" {
		t.Errorf("child order = %s, %s", roots[0].Children[0].Name, roots[0].Children[1].Name)
	}

	// The critical path descends into the latest-ending child at each
	// level: job → run → shard 1 → its eval.
	path := CriticalPath(roots[0])
	var names []string
	for _, st := range path {
		names = append(names, st.Name)
	}
	want := []string{"job", "job.run", "shard.execute", "run.eval"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	if path[2].Attrs["shard"] != "1" {
		t.Errorf("critical shard = %v, want shard 1 (the slow one)", path[2].Attrs)
	}

	// An orphan parent (still-running ancestor) becomes a root.
	orphans := BuildTree([]Span{span("t", "c", "missing", "x", "", 0, 1)})
	if len(orphans) != 1 {
		t.Errorf("orphan roots = %d, want 1", len(orphans))
	}
}

func TestSummarizeAndTraceView(t *testing.T) {
	spans := Descendants(testTree(), "root")
	sum := Summarize(spans, "root")
	if sum == nil {
		t.Fatal("Summarize returned nil")
	}
	if sum.WallMS != 100 || sum.QueueMS != 10 || sum.RunMS != 90 || sum.Spans != 7 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.SlowestShard == nil || sum.SlowestShard.Attrs["shard"] != "1" {
		t.Errorf("slowest shard = %+v, want shard 1", sum.SlowestShard)
	}

	tv := NewTraceView("job-1", "t", spans, "root")
	if tv.SpanCount != 7 || tv.WallMS != 100 {
		t.Errorf("view = span_count %d wall %v", tv.SpanCount, tv.WallMS)
	}
	// Queue [0,10) and run [10,100) abut: full coverage.
	if tv.Coverage < 0.999 || tv.Coverage > 1.001 {
		t.Errorf("coverage = %v, want ~1.0", tv.Coverage)
	}
	if strings.Join(tv.Origins, ",") != "coordinator,w0,w1" {
		t.Errorf("origins = %v", tv.Origins)
	}
	if len(tv.CriticalPath) == 0 {
		t.Error("view has no critical path")
	}
	// The view round-trips through JSON (the endpoint contract).
	b, err := json.Marshal(tv)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceView
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SpanCount != tv.SpanCount || len(back.Roots) != 1 {
		t.Errorf("round-trip view = %+v", back)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Descendants(testTree(), "root")); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	procs := map[any]int{} // process_name metadata value → pid
	complete := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs[ev.Args["name"]] = ev.PID
			}
		case "X":
			complete++
			if ev.TS < 0 || ev.Dur <= 0 || ev.PID == 0 || ev.TID == 0 {
				t.Errorf("bad complete event %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 7 {
		t.Errorf("%d complete events, want 7", complete)
	}
	for _, origin := range []string{"coordinator", "w0", "w1"} {
		if _, ok := procs[origin]; !ok {
			t.Errorf("origin %s missing a process row (have %v)", origin, procs)
		}
	}
	// The two overlapping shards of the coordinator must land in
	// different lanes of the same process.
	lanes := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "shard.execute" {
			lanes[ev.TID] = true
		}
	}
	if len(lanes) != 2 {
		t.Errorf("overlapping shards packed into %d lanes, want 2", len(lanes))
	}

	// Zero spans still renders a valid document.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("empty trace = %s", buf.String())
	}
}

func TestWriteTimeline(t *testing.T) {
	tv := NewTraceView("job-1", "t", Descendants(testTree(), "root"), "root")
	var buf bytes.Buffer
	WriteTimeline(&buf, tv)
	out := buf.String()
	for _, want := range []string{"job-1", "job.run", "shard.execute", "critical path", "w1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	WriteTimeline(&buf, nil)
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("nil view timeline = %q", buf.String())
	}
}

func TestGzipHandler(t *testing.T) {
	payload := strings.Repeat("mpstream_metric 1\n", 200)
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, payload)
	}))

	// Client advertises gzip: body comes back compressed.
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", got)
	}
	if rr.Header().Get("Vary") != "Accept-Encoding" {
		t.Errorf("Vary = %q", rr.Header().Get("Vary"))
	}
	if rr.Body.Len() >= len(payload) {
		t.Errorf("compressed body (%d bytes) not smaller than payload (%d)", rr.Body.Len(), len(payload))
	}
	gz, err := gzip.NewReader(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != payload {
		t.Error("gzip round-trip corrupted the body")
	}

	// No Accept-Encoding: identity body.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rr.Header().Get("Content-Encoding") != "" {
		t.Error("uncompressed response carries Content-Encoding")
	}
	if rr.Body.String() != payload {
		t.Error("identity body mangled")
	}
}
