package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help", "k", "v")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if again := r.Counter("test_total", "ignored", "k", "v"); again != c {
		t.Fatal("get-or-create returned a different counter for the same labels")
	}
	if other := r.Counter("test_total", "", "k", "w"); other == c {
		t.Fatal("distinct label sets share an instrument")
	}

	g := r.Gauge("test_gauge", "help")
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "").Inc()
	r.Gauge("x", "").Add(1)
	r.Histogram("x_seconds", "", DurationBuckets).Observe(1)
	r.GaugeFunc("y", "", func() float64 { return 1 })
	r.Collect(func(emit func(Sample)) { emit(Sample{Name: "z"}) })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q", sb.String())
	}
}

// TestHistogramBuckets pins the cumulative bucket semantics: each
// observation lands in the first bucket whose upper bound is >= the
// value, counts are cumulative, and the +Inf tail equals the total.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	// 0.05 and 0.1 -> le 0.1; 0.5 -> le 1; 5 -> le 10; 50 -> +Inf.
	want := []uint64{2, 3, 4, 5}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if sum := h.Sum(); sum != 0.05+0.1+0.5+5+50 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 2}, "route", "/x")
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(100)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{route="/x",le="0.5"} 1`,
		`lat_seconds_bucket{route="/x",le="2"} 2`,
		`lat_seconds_bucket{route="/x",le="+Inf"} 3`,
		`lat_seconds_count{route="/x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionFormatValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a", "k", `quote " slash \ done`).Add(7)
	r.Gauge("b", "gauge b").Add(-2.25)
	r.Histogram("c_seconds", "hist c", DurationBuckets).Observe(0.3)
	r.GaugeFunc("d", "func d", func() float64 { return 9 })
	r.Collect(func(emit func(Sample)) {
		emit(Sample{Name: "e", Help: "collected e", Kind: "gauge",
			Labels: []string{"w", "x1"}, Value: 4})
		emit(Sample{Name: "e", Kind: "gauge", Labels: []string{"w", "x2"}, Value: 5})
	})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	ValidateExposition(t, out)
	for _, want := range []string{
		`a_total{k="quote \" slash \\ done"} 7`,
		"b -2.25",
		"# HELP e collected e",
		`e{w="x1"} 4`,
		`e{w="x2"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must come out name-sorted.
	idx := func(s string) int { return strings.Index(out, "# TYPE "+s) }
	if !(idx("a_total") < idx("b") && idx("b") < idx("c_seconds") && idx("c_seconds") < idx("d")) {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				r.Counter("cc_total", "").Inc()
				r.Gauge("cg", "").Add(1)
				r.Histogram("ch_seconds", "", DurationBuckets).Observe(0.01)
			}
		}()
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 50; n++ {
			var sb strings.Builder
			r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	if got := r.Counter("cc_total", "").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Gauge("cg", "").Value(); got != 4000 {
		t.Fatalf("gauge = %v, want 4000", got)
	}
	if got := r.Histogram("ch_seconds", "", DurationBuckets).Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}

func TestTraceHelpers(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("trace IDs collide")
	}
	if len(a) != 32 {
		t.Fatalf("trace ID %q not 32 hex chars", a)
	}
	if SanitizeTraceID(a) != a {
		t.Fatalf("minted ID %q rejected by sanitizer", a)
	}
	for _, bad := range []string{`x"y`, "a b", strings.Repeat("z", 65), "new\nline"} {
		if got := SanitizeTraceID(bad); got != "" {
			t.Errorf("SanitizeTraceID(%q) = %q, want rejection", bad, got)
		}
	}
	ctx := WithTrace(context.Background(), a)
	if got := TraceID(ctx); got != a {
		t.Fatalf("TraceID = %q, want %q", got, a)
	}
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("TraceID of bare ctx = %q", got)
	}
}

func TestParseLevelAndLogger(t *testing.T) {
	if _, err := ParseLevel("nope"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
	var sb strings.Builder
	log, err := NewLogger(&sb, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := sb.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, `"shown"`) {
		t.Fatalf("leveled logging wrong: %q", out)
	}
	if _, err := NewLogger(&sb, "info", "yaml"); err == nil {
		t.Error("NewLogger accepted unknown format")
	}
	NopLogger().Error("goes nowhere")
}

func TestSimMetrics(t *testing.T) {
	d0, e0 := SimStats()
	AddDRAMRequests(10)
	for i := 0; i < 20; i++ {
		EvalDone(EvalStart())
	}
	d1, e1 := SimStats()
	if d1-d0 != 10 {
		t.Errorf("dram requests advanced %d, want 10", d1-d0)
	}
	if e1-e0 != 20 {
		t.Errorf("evals advanced %d, want 20", e1-e0)
	}
	r := NewRegistry()
	RegisterSimMetrics(r)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"mpstream_sim_dram_requests_total",
		"mpstream_sim_evaluations_total",
		"mpstream_sim_evaluation_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sim exposition missing %q:\n%s", want, out)
		}
	}
	ValidateExposition(t, out)
}
