// Package obs is the service's zero-dependency telemetry layer:
// a metrics registry (atomic counters, gauges and fixed-bucket
// histograms rendered in the Prometheus text exposition format),
// structured logging helpers over log/slog, per-job trace IDs
// propagated coordinator→worker through an HTTP header, and the
// HTTP middleware that ties the three together.
//
// The registry is deliberately small: get-or-create instruments keyed
// by (family name, label set), plus scrape-time collectors for values
// that already live elsewhere (cache stats, registry snapshots, queue
// depths) and would be silly to mirror into live instruments. Every
// instrument is safe for concurrent use, and every instrument method
// is a no-op on a nil receiver — callers thread a nil *Registry to
// run fully uninstrumented, which is how the instrumentation-overhead
// benchmark gets its baseline.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the shared histogram layout for request and job
// latencies, spanning sub-millisecond HTTP handling to ten-minute
// sweep jobs.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// EvalBuckets is the histogram layout for single simulator
// evaluations, which run from tens of microseconds (a cached-size
// kernel) to tens of seconds (a gigabyte array swept serially).
var EvalBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value moved by Add.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Add adds delta (negative to subtract). No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed ascending buckets (an
// implicit +Inf bucket catches the tail) and tracks their sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a standalone histogram over the given ascending
// upper bounds; use Registry.Histogram for registered ones. Shared
// instances (e.g. process-global simulator stats) can later be adopted
// into a registry with AddHistogram.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(h.bounds)+1)
	return h
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the cumulative per-bucket counts, one entry per
// bound plus the +Inf tail — the exposition-format shape.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.buckets))
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// Sample is one scrape-time value a collector emits: a counter or
// gauge with optional labels, grouped into the named family.
type Sample struct {
	Name   string
	Help   string
	Kind   string   // "counter" or "gauge"
	Labels []string // alternating key, value
	Value  float64
}

// metric is anything a family can render at scrape time.
type metric interface {
	writeSamples(w io.Writer, name, labels string)
}

func (c *Counter) writeSamples(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, strconv.FormatUint(c.Value(), 10))
}

func (g *Gauge) writeSamples(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

func (h *Histogram) writeSamples(w io.Writer, name, labels string) {
	cum := h.BucketCounts()
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// funcMetric renders a callback's value at scrape time.
type funcMetric struct {
	fn func() float64
}

func (f funcMetric) writeSamples(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f.fn()))
}

// family is one metric name with its help, type and labeled children.
type family struct {
	name, help, kind string
	metrics          map[string]metric // rendered label string -> instrument
}

// Registry holds metric families and scrape-time collectors. A nil
// *Registry is valid: every method no-ops (returning nil instruments,
// themselves no-ops), so instrumented code paths need no nil checks.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string // registration order, for stable-but-resorted output
	collectors []func(emit func(Sample))
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the family and the slot for the
// given label set. Requires a non-nil registry.
func (r *Registry) lookup(name, help, kind string, labels []string) (*family, string) {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, metrics: make(map[string]metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f, ls
}

// Counter returns the counter for name and the given label pairs,
// creating it on first use. help is recorded on creation only.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	f, ls := r.lookup(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := f.metrics[ls]; ok {
		c, _ := m.(*Counter)
		return c
	}
	c := &Counter{}
	f.metrics[ls] = c
	return c
}

// Gauge returns the gauge for name and the given label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	f, ls := r.lookup(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := f.metrics[ls]; ok {
		g, _ := m.(*Gauge)
		return g
	}
	g := &Gauge{}
	f.metrics[ls] = g
	return g
}

// Histogram returns the histogram for name and the given label pairs,
// creating it over bounds on first use (later calls reuse the first
// creation's bounds).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	f, ls := r.lookup(name, help, "histogram", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := f.metrics[ls]; ok {
		h, _ := m.(*Histogram)
		return h
	}
	h := NewHistogram(bounds)
	f.metrics[ls] = h
	return h
}

// AddHistogram adopts an existing (possibly shared, process-global)
// histogram into the registry under name.
func (r *Registry) AddHistogram(name, help string, h *Histogram, labels ...string) {
	if r == nil || h == nil {
		return
	}
	f, ls := r.lookup(name, help, "histogram", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.metrics[ls] = h
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — for values that already live elsewhere (queue lengths,
// channel capacities).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	f, ls := r.lookup(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.metrics[ls] = funcMetric{fn: fn}
}

// CounterFunc registers a counter read from fn at scrape time. fn must
// be monotonically non-decreasing (e.g. backed by an atomic counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	f, ls := r.lookup(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.metrics[ls] = funcMetric{fn: fn}
}

// Collect registers a scrape-time collector: fn is invoked on every
// exposition and emits samples for values with dynamic label sets
// (per-worker load, jobs by state) that would churn as live
// instruments.
func (r *Registry) Collect(fn func(emit func(Sample))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// renderedSample pairs a label string with pre-rendered exposition
// lines, for sorting within a family.
type renderedSample struct {
	labels string
	text   string
}

// WritePrometheus renders every family — registered instruments and
// collector output merged by name — in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and samples sorted
// by label string.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	var collectors []func(emit func(Sample))
	collectors = append(collectors, r.collectors...)
	r.mu.Unlock()

	// Collector samples land in a shadow structure merged under the
	// family name; collectors run without the registry lock so they can
	// safely read other locked state.
	collected := make(map[string]*struct {
		help, kind string
		samples    []Sample
	})
	var collectedOrder []string
	for _, fn := range collectors {
		fn(func(s Sample) {
			cf, ok := collected[s.Name]
			if !ok {
				cf = &struct {
					help, kind string
					samples    []Sample
				}{help: s.Help, kind: s.Kind}
				collected[s.Name] = cf
				collectedOrder = append(collectedOrder, s.Name)
			}
			cf.samples = append(cf.samples, s)
		})
	}
	for _, name := range collectedOrder {
		r.mu.Lock()
		_, registered := r.families[name]
		r.mu.Unlock()
		if !registered {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		var help, kind string
		var rendered []renderedSample
		if f != nil {
			help, kind = f.help, f.kind
			for ls, m := range f.metrics {
				var sb strings.Builder
				m.writeSamples(&sb, name, ls)
				rendered = append(rendered, renderedSample{labels: ls, text: sb.String()})
			}
		}
		r.mu.Unlock()
		if cf := collected[name]; cf != nil {
			if help == "" {
				help, kind = cf.help, cf.kind
			}
			for _, s := range cf.samples {
				ls := labelString(s.Labels)
				var sb strings.Builder
				if s.Kind == "counter" {
					fmt.Fprintf(&sb, "%s%s %s\n", name, ls, strconv.FormatUint(uint64(s.Value), 10))
				} else {
					fmt.Fprintf(&sb, "%s%s %s\n", name, ls, formatFloat(s.Value))
				}
				rendered = append(rendered, renderedSample{labels: ls, text: sb.String()})
			}
		}
		if len(rendered) == 0 {
			continue
		}
		sort.Slice(rendered, func(i, j int) bool { return rendered[i].labels < rendered[j].labels })
		if help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		}
		if kind != "" {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, kind)
		}
		for _, rs := range rendered {
			bw.WriteString(rs.text)
		}
	}
}

// Handler serves the exposition — the GET /v1/metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// labelString renders alternating key/value pairs as a canonical
// `{k="v",...}` block, keys sorted, values escaped; empty pairs render
// as "".
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// withLE folds the histogram bucket's le label into an existing label
// block.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a float the exposition format accepts, with
// integral values kept short.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
