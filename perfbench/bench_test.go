package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"mpstream/internal/experiments"
)

var record = flag.Bool("record", false, "re-record reference/fig2.json from the current model")

// benchmarkSpec is the part of BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func minimalRun(t *testing.T, workload string, trace bool) report {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.5, trace: trace, minimal: true, statsDir: t.TempDir()}
	rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestMinimalWorkloads runs every workload of BENCHMARK.json at minimal
// size, untraced and traced, and checks that each emits exactly the
// metrics BENCHMARK.json names, with their units, and checks clean.
func TestMinimalWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			rep := minimalRun(t, w.Name, trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if !trace {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestCorruptedOutputCounted proves a wrong output is a failed unit.
func TestCorruptedOutputCounted(t *testing.T) {
	for _, w := range workloads {
		o := options{workload: w.name, seed: 7, seconds: 0.01, minimal: true, corrupt: true}
		rep, err := run(o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s: corrupted run reports correct=%v failed=%d of %d, want one failure",
				w.name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// TestSimulatedCountsRepeat runs a traced workload twice into one
// statistics directory: the second run must reproduce the first's
// simulated counts, and a doctored record must be reported.
func TestSimulatedCountsRepeat(t *testing.T) {
	o := options{workload: "http-dse", seed: 3, seconds: 0.5, trace: true, minimal: true, statsDir: t.TempDir()}
	for i := 0; i < 2; i++ {
		rep, err := run(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Fatalf("run %d: simulated statistics did not repeat", i)
		}
	}
	path := o.statsDir + "/http-dse-seed3-minimal.json"
	if err := os.WriteFile(path, []byte(`{"mem.txns": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatal("a changed simulated count was not reported as a failure")
	}
}

// TestRecordFig2Reference re-records reference/fig2.json when run with
// -record, after checking that the benchmark's Figure 2 pass reproduces
// experiments.Fig2 series for series.
func TestRecordFig2Reference(t *testing.T) {
	if !*record {
		t.Skip("run with -record to re-record reference/fig2.json")
	}
	fx, err := newFig2(options{})
	if err != nil {
		t.Fatal(err)
	}
	units := fx.pass(nil)
	ref := fig2Reference{Points: make(map[string]string)}
	for _, u := range units {
		if u.err != nil {
			t.Fatalf("%s: %v", u.key, u.err)
		}
		ref.Points[u.key] = u.digest
	}
	want, err := experiments.Fig2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := fx.(*fig2).exp
	if got.GeoMeanDeviation() != want.GeoMeanDeviation() || !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatalf("benchmark series differ from experiments.Fig2:\n got %+v\nwant %+v", got.Series, want.Series)
	}
	counts := func(minimal bool) map[string]float64 {
		o := options{workload: "paper-fig2", seed: 1, seconds: 1, trace: true, minimal: minimal}
		rep, err := run(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		c := make(map[string]float64)
		for _, name := range simCounts {
			c[name] = rep.Metrics[name].Value
		}
		return c
	}
	// The reference is written before the traced runs so their digests
	// check against it.
	write := func() {
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference/fig2.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fig2ReferenceJSON = b
	}
	write()
	ref.Counts, ref.CountsMinimal = counts(false), counts(true)
	write()
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestCPUSharesAttributeLeaves profiles a busy loop in this package and
// checks the decoder attributes the samples to it.
func TestCPUSharesAttributeLeaves(t *testing.T) {
	prof, err := profile(func() error {
		spin(time.Now().Add(300 * time.Millisecond))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares([][]byte{prof})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if shares["bench"] < 0.9 {
		t.Errorf("busy loop attributed as %v", shares)
	}
}
