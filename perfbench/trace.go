package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer accumulates the per-layer numbers of a traced pass. Every
// method is safe for concurrent use, and a nil tracer records nothing,
// so untraced passes run the same code with tr == nil.
type tracer struct {
	mu      sync.Mutex
	sum     map[string]float64
	n       map[string]int
	replays []func()
}

func newTracer() *tracer {
	return &tracer{sum: make(map[string]float64), n: make(map[string]int)}
}

// add records one value under name; a metric reports the sum or the
// mean of its values (see layerMetrics).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sum[name] += v
	t.n[name]++
	t.mu.Unlock()
}

// addMS records a duration in milliseconds.
func (t *tracer) addMS(name string, d time.Duration) { t.add(name, ms(d)) }

// set replaces name's value.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sum[name], t.n[name] = v, 1
	t.mu.Unlock()
}

// replay queues a layer replay. Replays run after the profiled pass, so
// their calls into the layers do not pollute the CPU shares.
func (t *tracer) replay(f func()) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.replays = append(t.replays, f)
	t.mu.Unlock()
}

func (t *tracer) runReplays() {
	for _, f := range t.replays {
		f()
	}
	t.replays = nil
}

func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[name]
}

func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[name] == 0 {
		return 0
	}
	return t.sum[name] / float64(t.n[name])
}

// ratio is total(num)/total(den), 0 when den is 0.
func (t *tracer) ratio(num, den string) float64 {
	d := t.total(den)
	if d == 0 {
		return 0
	}
	return t.total(num) / d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetric is one per-layer metric of a traced run. A layer the
// workload does not reach reports 0.
type layerMetric struct {
	name, unit string
	// of computes the value; nil means the sum of the recorded values
	// when unit is count-like and their mean otherwise (see value).
	of func(t *tracer) float64
}

func (t *tracer) value(m layerMetric) float64 {
	if m.of != nil {
		return m.of(t)
	}
	switch m.unit {
	case "count", "MB":
		return t.total(m.name)
	}
	return t.mean(m.name)
}

func perTxn(ns, txns string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return t.ratio(ns, txns) }
}

func sumOf(name string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return t.total(name) }
}

// fig2Series are Figure 2's eight series, each reported with its worst
// deviation from the paper.
var fig2Series = []string{
	"aocl-contig", "aocl-strided", "sdaccel-contig", "sdaccel-strided",
	"cpu-contig", "cpu-strided", "gpu-contig", "gpu-strided",
}

// layerMetrics lists every per-layer metric in report order. Times in
// ms are means per call; counts are totals over the traced pass; the
// *_ns_per_* metrics are self time over the layer's own work count.
var layerMetrics = func() []layerMetric {
	list := []layerMetric{
		{name: "mem.ns_per_txn", unit: "ns", of: perTxn("mem.ns", "mem.txns")},
		{name: "mem.txns", unit: "count"},
		{name: "cache.ns_per_access", unit: "ns", of: perTxn("cache.ns", "cache.accesses")},
		{name: "cache.accesses", unit: "count"},
		{name: "cache.hits", unit: "count"},
		{name: "cache.hit_rate", unit: "ratio", of: func(t *tracer) float64 { return t.ratio("cache.hits", "cache.accesses") }},
		{name: "dram.service_ns_per_txn", unit: "ns", of: perTxn("dram.service_ns", "dram.service_txns")},
		{name: "dram.txns", unit: "count"},
		{name: "dram.row_hits", unit: "count"},
		{name: "dram.row_hit_rate", unit: "ratio", of: func(t *tracer) float64 { return t.ratio("dram.row_hits", "dram.row_accesses") }},
		{name: "dram.turnarounds", unit: "count"},
		{name: "dram.loaded_ns_per_txn", unit: "ns", of: perTxn("dram.loaded_ns", "dram.loaded_txns")},
		{name: "dram.preroute_ns_per_txn", unit: "ns", of: perTxn("dram.preroute_ns", "dram.preroute_txns")},
		{name: "sample.sampled_points", unit: "count"},
		{name: "sample.sim_txn_ratio", unit: "ratio", of: func(t *tracer) float64 { return t.ratio("sample.sim_txns", "sample.rep_txns") }},
	}
	for _, id := range []string{"cpu", "gpu", "aocl", "sdaccel"} {
		list = append(list, layerMetric{name: "device.seconds_ms." + id, unit: "ms"})
	}
	list = append(list, []layerMetric{
		{name: "device.compile_ms", unit: "ms"},
		{name: "cl.buffer_ms", unit: "ms"},
		{name: "cl.alloc_mb", unit: "MB"},
		{name: "cl.apply_ms", unit: "ms"},
		{name: "core.run_ms", unit: "ms"},
		{name: "core.verify_ms", unit: "ms"},
		{name: "core.self_ms", unit: "ms"},
		{name: "surface.generate_ms", unit: "ms"},
		{name: "surface.idle_probe_ms", unit: "ms"},
		{name: "surface.rung_ms", unit: "ms"},
		{name: "surface.rungs", unit: "count"},
		{name: "search.evals", unit: "count"},
		{name: "search.cached_points", unit: "count"},
		{name: "search.eval_ms", unit: "ms"},
		{name: "service.queue_ms", unit: "ms"},
		{name: "service.run_ms", unit: "ms"},
		{name: "service.overhead_ms", unit: "ms"},
		{name: "service.cache_hit_rate", unit: "ratio", of: sumOf("service.cache_hit_rate")},
	}...)
	for _, kind := range []string{"run", "sweep", "optimize", "surface"} {
		list = append(list, layerMetric{name: "http.rtt_ms." + kind, unit: "ms"})
	}
	list = append(list, []layerMetric{
		{name: "http.resp_kb", unit: "KB"},
		{name: "cluster.shards", unit: "count"},
		{name: "cluster.shard_ms", unit: "ms"},
		{name: "cluster.merge_ms", unit: "ms"},
		{name: "cluster.retried", unit: "count"},
		{name: "cluster.stolen", unit: "count"},
		{name: "cluster.speculated", unit: "count"},
		{name: "cluster.worker_skew", unit: "ratio", of: sumOf("cluster.worker_skew")},
		{name: "experiments.x_paper", unit: "x", of: sumOf("experiments.x_paper")},
	}...)
	for _, s := range fig2Series {
		list = append(list, layerMetric{name: "experiments.worst_factor." + s, unit: "x", of: sumOf("experiments.worst_factor." + s)})
	}
	for _, layer := range shareLayers {
		list = append(list, layerMetric{name: layer + ".cpu_share", unit: "ratio", of: sumOf(layer + ".cpu_share")})
	}
	return append(list, []layerMetric{
		{name: "trace.overhead_frac", unit: "ratio", of: sumOf("trace.overhead_frac")},
		{name: "host.copy_gbps", unit: "GB/s", of: sumOf("host.copy_gbps")},
		{name: "failed_frac", unit: "ratio", of: sumOf("failed_frac")},
	}...)
}()

// simCounts are the simulated statistics a traced run must reproduce
// exactly for the same code and seed; a speed-only change leaves them
// all unchanged.
var simCounts = []string{
	"mem.txns", "cache.accesses", "cache.hits", "dram.txns", "dram.row_hits",
	"dram.turnarounds", "sample.sampled_points", "search.evals", "cluster.shards",
}

// counts reads the simulated statistics of a traced pass.
func (t *tracer) counts() map[string]float64 {
	c := make(map[string]float64, len(simCounts))
	for _, name := range simCounts {
		c[name] = t.total(name)
	}
	return c
}

// checkCounts compares a traced run's simulated statistics with the
// workload's recorded ones (Figure 2's fixed inputs) and with those of
// the first traced run of the same workload and seed in this checkout,
// which it records when absent.
func checkCounts(o options, tr *tracer, notes io.Writer) error {
	got := tr.counts()
	if want, ok := recordedCounts(o); ok {
		if err := diffCounts(got, want); err != nil {
			return fmt.Errorf("against the recorded Figure 2 counts: %w", err)
		}
	}
	if o.statsDir == "" {
		return nil
	}
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if o.minimal {
		name += "-minimal"
	}
	path := filepath.Join(o.statsDir, name+".json")
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(o.statsDir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(notes, "recorded simulated statistics in %s\n", path)
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := diffCounts(got, want); err != nil {
		return fmt.Errorf("against %s: %w", path, err)
	}
	return nil
}

// diffCounts names every count that differs.
func diffCounts(got, want map[string]float64) error {
	var diffs []string
	for _, name := range simCounts {
		if got[name] != want[name] {
			diffs = append(diffs, fmt.Sprintf("%s %g != %g", name, got[name], want[name]))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return errors.New(strings.Join(diffs, "; "))
}
