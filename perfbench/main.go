// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks every output against a reference, and
// prints its metrics, each with its unit, as one JSON object on the last
// line of standard output. Run it from the repository root through the
// wrapper that builds it:
//
//	bash perfbench/run.sh --workload paper-fig2 --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	paper-fig2      the Figure 2 reproduction, 80 design points
//	surface-ladder  default bandwidth–latency surfaces plus knee probes
//	http-dse        two closed-loop clients against one in-process server
//	fleet-sweep     sweep grids through a coordinator and two workers
//
// A run repeats passes over the workload's fixed, seeded work, each on a
// freshly set-up fixture, until another pass would overrun --seconds
// (at least one pass; two for paper-fig2, whose pass alone takes most
// of a run). With --trace 0 it reports the end-to-end metrics:
// setup_s (median set-up), wall_s (median pass), p50_ms and tail_ms
// (unit latency over every pass), cpu_s and alloc_mb (mean per pass)
// and peak_rss_mb. With --trace 1 it alternates untraced passes with
// passes under a CPU profile that also collect the program's spans,
// then replays each traced unit's calls into the layers with timers,
// and reports the per-layer metrics (see layerMetrics). Outputs are
// checked in both modes; a traced run also checks that its simulated
// statistics repeat exactly (see checkCounts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mpstream/internal/stats"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// minimal shrinks every workload to a smoke-sized input for the
	// self-tests.
	minimal bool
	// corrupt flips the first unit's output digest before the
	// reference check, so the self-tests can prove a wrong output is
	// counted as failed.
	corrupt bool
	// statsDir keeps each traced run's simulated counts for the
	// cross-run identity check; "" disables the check.
	statsDir string
}

// unit is one timed piece of a workload: a design point, a surface, an
// HTTP request or a fleet sweep.
type unit struct {
	kind    string
	latency time.Duration
	// key names the unit's input; the reference check looks it up.
	key string
	// digest is the SHA-256 of the unit's output.
	digest string
	err    error
}

// fixture is a workload that is set up and ready to run.
type fixture interface {
	// pass runs the workload's fixed, seeded work once. tr is nil on
	// untraced passes.
	pass(tr *tracer) []unit
	close()
}

// referee returns the expected output digest of a unit key. It lives for
// the whole run, so its answers are computed once.
type referee interface {
	reference(key string) (string, error)
	close()
}

// workload builds fixtures and the referee that checks their outputs.
type workload struct {
	name       string
	setup      func(o options) (fixture, error)
	newReferee func(o options) (referee, error)
	// minPasses is the fewest passes an untraced run makes, even past
	// its budget: one Figure 2 pass takes most of a run, and its tail
	// latency is only steady over the units of two.
	minPasses int
	// tracedPasses is how many untraced and traced passes a traced run
	// alternates: enough for a steady profile, and fixed, so the
	// simulated counts it totals are too.
	tracedPasses int
}

var workloads = []workload{
	{"paper-fig2", newFig2, newFig2Referee, 2, 1},
	{"surface-ladder", newSurfaceLadder, newSurfaceReferee, 1, 20},
	{"http-dse", newHTTPDSE, newServiceReferee, 1, 20},
	{"fleet-sweep", newFleetSweep, newServiceReferee, 1, 20},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed on the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-fig2|surface-ladder|http-dse|fleet-sweep")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.statsDir = filepath.Join(".bench_build", "perfbench-stats")
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// simThreads caps the Go scheduler: every workload is defined on at most
// two simulation threads, whatever the host offers.
const simThreads = 2

// passStats is what one pass measured.
type passStats struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	units []unit
}

// run executes one benchmark invocation and writes its human-readable
// notes to notes; the caller prints the report.
func run(o options, notes io.Writer) (report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return report{}, err
	}
	if o.seconds <= 0 {
		return report{}, fmt.Errorf("--seconds %g must be positive", o.seconds)
	}
	runtime.GOMAXPROCS(simThreads)
	start := time.Now()

	ref, err := w.newReferee(o)
	if err != nil {
		return report{}, fmt.Errorf("%s: reference: %w", o.workload, err)
	}
	defer ref.close()

	hostStart := hostCopyGBps(o.minimal)
	var setups []float64
	newFixture := func() (fixture, error) {
		// Every set-up, and the pass after it, starts from a collected
		// heap rather than the previous pass's garbage.
		runtime.GC()
		t0 := time.Now()
		fx, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return fx, nil
	}
	onePass := func(tr *tracer) (passStats, error) {
		fx, err := newFixture()
		if err != nil {
			return passStats{}, err
		}
		defer fx.close()
		return measurePass(fx, tr), nil
	}

	rss := watchRSS()
	var passes []passStats
	var tr *tracer
	var profs [][]byte
	if o.trace {
		tr = newTracer()
		passes, profs, err = tracedPasses(w, tr, onePass)
	} else {
		passes, err = timedPasses(o, w, start, onePass)
	}
	peakMB := rss.stop()
	if err != nil {
		return report{}, err
	}
	// Set-up is sampled at least setupSamples times; the extra fixtures
	// are built and closed without running.
	for len(setups) < setupSamples {
		fx, err := newFixture()
		if err != nil {
			return report{}, err
		}
		fx.close()
	}
	hostEnd := hostCopyGBps(o.minimal)

	rep := report{Correct: true, Metrics: make(map[string]metric)}
	var lat []float64
	for pi := range passes {
		for ui, u := range passes[pi].units {
			rep.Attempted++
			if o.corrupt && pi == 0 && ui == 0 {
				u.digest = "corrupted:" + u.digest
			}
			if err := checkUnit(ref, u); err != nil {
				rep.Failed++
				fmt.Fprintf(notes, "FAIL %s %s: %v\n", u.kind, u.key, err)
				continue
			}
			lat = append(lat, float64(u.latency)/float64(time.Millisecond))
		}
	}
	if rep.Attempted == 0 {
		return report{}, fmt.Errorf("%s: the workload ran no units", o.workload)
	}
	if len(lat) == 0 {
		lat = []float64{0}
	}
	fmt.Fprintf(notes, "host.copy_gbps start %.2f end %.2f\n", hostStart, hostEnd)

	if o.trace {
		tr.set("host.copy_gbps", (hostStart+hostEnd)/2)
		tr.set("failed_frac", float64(rep.Failed)/float64(rep.Attempted))
		shares, err := cpuShares(profs)
		if err != nil {
			return report{}, fmt.Errorf("cpu profile: %w", err)
		}
		for layer, share := range shares {
			tr.set(layer+".cpu_share", share)
		}
		if err := checkCounts(o, tr, notes); err != nil {
			rep.Correct = false
			rep.Failed++
			fmt.Fprintf(notes, "FAIL simulated statistics: %v\n", err)
		}
		for _, m := range layerMetrics {
			rep.Metrics[m.name] = metric{Value: tr.value(m), Unit: m.unit}
		}
	} else {
		tailMS, pct, beyond := tail(lat)
		fmt.Fprintf(notes, "tail_ms is p%.1f of %d units (%d beyond it)\n", pct, len(lat), beyond)
		var walls, cpus, allocs []float64
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
			allocs = append(allocs, float64(p.alloc)/(1<<20))
		}
		fmt.Fprintf(notes, "%d passes\n", len(passes))
		put := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
		put("setup_s", "s", summarize(setups).Median)
		put("wall_s", "s", summarize(walls).Median)
		put("p50_ms", "ms", summarize(lat).Median)
		put("tail_ms", "ms", tailMS)
		put("cpu_s", "s", summarize(cpus).Mean)
		put("alloc_mb", "MB", summarize(allocs).Mean)
		put("peak_rss_mb", "MB", peakMB)
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	return rep, nil
}

// timedPasses runs passes until another would overrun the run's
// budget, and at least the workload's minimum.
func timedPasses(o options, w workload, start time.Time, onePass func(*tracer) (passStats, error)) ([]passStats, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	var passes []passStats
	for {
		ps, err := onePass(nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		if len(passes) >= w.minPasses && time.Since(start)+ps.wall > budget {
			return passes, nil
		}
	}
}

// tracedPasses alternates the workload's untraced and traced passes,
// profiling the traced ones, then runs the queued layer replays and
// records the tracing overhead.
func tracedPasses(w workload, tr *tracer, onePass func(*tracer) (passStats, error)) ([]passStats, [][]byte, error) {
	var passes []passStats
	var profs [][]byte
	var baseWall, tracedWall time.Duration
	for i := 0; i < w.tracedPasses; i++ {
		base, err := onePass(nil)
		if err != nil {
			return nil, nil, err
		}
		var traced passStats
		p, err := profile(func() error {
			var err error
			traced, err = onePass(tr)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		profs = append(profs, p)
		passes = append(passes, base, traced)
		baseWall += base.wall
		tracedWall += traced.wall
	}
	tr.runReplays()
	tr.set("trace.overhead_frac", tracedWall.Seconds()/baseWall.Seconds()-1)
	return passes, profs, nil
}

// setupSamples is how many times a run sets its fixture up at least, so
// setup_s is a median, not one sample.
const setupSamples = 9

// checkUnit reports why a unit's output is wrong, or nil.
func checkUnit(ref referee, u unit) error {
	if u.err != nil {
		return u.err
	}
	want, err := ref.reference(u.key)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if u.digest != want {
		return fmt.Errorf("output digest %.16s differs from the reference %.16s", u.digest, want)
	}
	return nil
}

// measurePass runs one pass and measures its wall clock, CPU time and
// allocated bytes.
func measurePass(fx fixture, tr *tracer) passStats {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()
	units := fx.pass(tr)
	wall := time.Since(t0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&ms1)
	return passStats{wall: wall, cpu: cpu1 - cpu0, alloc: ms1.TotalAlloc - ms0.TotalAlloc, units: units}
}

// summarize is stats.Summarize over a sample set the run guarantees
// non-empty.
func summarize(xs []float64) stats.Summary {
	sum, _ := stats.Summarize(xs)
	return sum
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the latency at the highest percentile that has at least
// tailBeyond samples beyond it, that percentile, and the number of
// samples beyond it. With too few samples it returns the maximum.
func tail(xs []float64) (v, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - 1 - tailBeyond
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i
}
