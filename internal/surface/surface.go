// Package surface generates bandwidth–latency surfaces: the loaded-
// latency characterization that completes a device's memory description
// beyond MP-STREAM's peak-bandwidth numbers.
//
// The methodology (after "A Mess of Memory System Benchmarking,
// Simulation and Application Profiling", arXiv:2405.10170) crosses three
// axes:
//
//   - access pattern of the background traffic (contiguous, strided,
//     column-major — the same mem.Pattern vocabulary as the benchmark);
//   - read/write ratio of the background traffic;
//   - offered injection rate, stepped up a ladder of fractions of the
//     device's peak memory bandwidth.
//
// For every (pattern, ratio) pair the generator sweeps the rate ladder.
// At each rung it drives the device's DRAM model (device.MemorySystem)
// open-loop with background traffic at the offered rate while a serial
// pointer-chase probe (kernel.Chase's request stream, mem.ChaseIter)
// threads through it; the probe's mean round trip is the loaded
// latency. The resulting curve of achieved bandwidth versus loaded
// latency bends sharply where the memory system saturates; the knee —
// the highest bandwidth still delivered at acceptable latency — is the
// scalar the DSE layer can optimize instead of raw GB/s.
//
// Everything is deterministic: the chase walk is an LCG, the read/write
// mix is error diffusion, and the DRAM model is single-threaded — equal
// configurations reproduce equal surfaces, which is what lets the
// service layer cache whole surfaces by request fingerprint.
package surface

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"mpstream/internal/device"
	"mpstream/internal/obs"
	"mpstream/internal/report"
	"mpstream/internal/runstate"
	"mpstream/internal/shard"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
)

// Defaults for Config zero values.
const (
	DefaultArrayBytes = 32 << 20
	DefaultWindowTxns = 16384
	DefaultProbeHops  = 256
	DefaultKneeFactor = 2.0
)

// DefaultRates is the injection ladder as fractions of the device's
// peak memory bandwidth. It deliberately crosses 1.0: the territory
// past saturation is where the latency blows up and the knee shows.
func DefaultRates() []float64 { return []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.2} }

// MaxRate caps an injection rate fraction. It sits far past
// saturation, where more offered load changes nothing but can overflow
// the offered GB/s a point reports.
const MaxRate = 1e3

// DefaultRWRatios is the read-fraction axis: all-read, 2:1 (triad- and
// add-shaped) and 1:1 (copy-shaped) traffic.
func DefaultRWRatios() []float64 { return []float64{1, 2.0 / 3, 0.5} }

// DefaultPatterns is the background-pattern axis: a streaming walk and
// a row-buffer-hostile strided walk.
func DefaultPatterns() []mem.Pattern {
	return []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16)}
}

// Config parameterizes one surface generation. The zero value measures
// a sensible default surface; WithDefaults resolves it explicitly.
type Config struct {
	// Patterns is the background access-pattern axis; nil means
	// DefaultPatterns.
	Patterns []mem.Pattern `json:"patterns,omitempty"`
	// RWRatios is the read-fraction axis (1 = all reads); nil means
	// DefaultRWRatios.
	RWRatios []float64 `json:"rw_ratios,omitempty"`
	// Rates is the injection ladder, as fractions of the device's peak
	// memory bandwidth; nil means DefaultRates.
	Rates []float64 `json:"rates,omitempty"`
	// ArrayBytes is the footprint of each traffic stream (read array,
	// write array, chase array); 0 means DefaultArrayBytes. Keep it well
	// beyond on-chip caches: the surface characterizes DRAM.
	ArrayBytes int64 `json:"array_bytes,omitempty"`
	// WindowTxns bounds the transactions simulated per ladder point;
	// 0 means DefaultWindowTxns.
	WindowTxns int `json:"window_txns,omitempty"`
	// ProbeHops is the chase length of the idle-latency measurement;
	// 0 means DefaultProbeHops.
	ProbeHops int `json:"probe_hops,omitempty"`
	// KneeFactor defines "acceptable latency": the knee is the highest-
	// bandwidth point whose loaded latency stays within KneeFactor times
	// the idle latency. 0 means DefaultKneeFactor.
	KneeFactor float64 `json:"knee_factor,omitempty"`
}

// WithDefaults resolves zero fields, the canonical form the service
// fingerprints.
func (c Config) WithDefaults() Config {
	if len(c.Patterns) == 0 {
		c.Patterns = DefaultPatterns()
	}
	if len(c.RWRatios) == 0 {
		c.RWRatios = DefaultRWRatios()
	}
	if len(c.Rates) == 0 {
		c.Rates = DefaultRates()
	}
	if c.ArrayBytes == 0 {
		c.ArrayBytes = DefaultArrayBytes
	}
	if c.WindowTxns == 0 {
		c.WindowTxns = DefaultWindowTxns
	}
	if c.ProbeHops == 0 {
		c.ProbeHops = DefaultProbeHops
	}
	if c.KneeFactor == 0 {
		c.KneeFactor = DefaultKneeFactor
	}
	return c
}

// Points returns the number of ladder points the surface will measure.
func (c Config) Points() int {
	c = c.WithDefaults()
	return len(c.Patterns) * len(c.RWRatios) * len(c.Rates)
}

// CurveCount returns the number of curves the surface holds: one per
// (pattern, read-fraction) pair, in pattern-major order — the axis a
// distributed measurement shards along.
func (c Config) CurveCount() int {
	c = c.WithDefaults()
	return len(c.Patterns) * len(c.RWRatios)
}

// Shard is a contiguous run [Lo, Hi) of a surface's curves in
// pattern-major order — the unit a distributed surface splits the
// ladder into.
type Shard = shard.Range

// PartitionCurves splits the curve axis into at most parts contiguous
// shards of near-equal size (differing by at most one curve, larger
// shards first). Concatenating the shards in order covers every curve
// exactly once, so shard generation followed by MergeShards reproduces
// a single-node run over the whole grid.
func (c Config) PartitionCurves(parts int) []Shard {
	return shard.Split(c.CurveCount(), parts)
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.ArrayBytes < 1<<10 {
		return fmt.Errorf("surface: array bytes %d too small to exercise a memory system", c.ArrayBytes)
	}
	// The comparisons below are all false for NaN, so each range check
	// states what a valid value is and negates it.
	for _, r := range c.RWRatios {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("surface: read fraction %g out of [0,1]", r)
		}
	}
	for _, f := range c.Rates {
		if !(f > 0 && f <= MaxRate) {
			return fmt.Errorf("surface: injection rate fraction %g out of (0,%g]", f, MaxRate)
		}
	}
	if c.WindowTxns < 64 {
		return fmt.Errorf("surface: window of %d transactions too small to measure", c.WindowTxns)
	}
	if c.ProbeHops < 16 {
		return fmt.Errorf("surface: %d probe hops too few to measure idle latency", c.ProbeHops)
	}
	if !(c.KneeFactor > 1) || math.IsInf(c.KneeFactor, 1) {
		return fmt.Errorf("surface: knee factor %g must be finite and exceed 1 (it multiplies the idle latency)", c.KneeFactor)
	}
	// The element count is device-dependent (the traffic granule is the
	// DRAM burst size), so only granule-independent pattern properties
	// are checked here; GenerateShardWith re-validates shapes against the real
	// burst before simulating anything.
	for _, p := range c.Patterns {
		switch p.Kind {
		case mem.Contiguous, mem.ColMajor2D:
		case mem.Strided:
			if p.StrideElems < 1 {
				return fmt.Errorf("surface: stride %d must be >= 1", p.StrideElems)
			}
		default:
			return fmt.Errorf("surface: unknown pattern kind %d", p.Kind)
		}
	}
	return nil
}

// Point is one rung of the injection ladder: offered load in, achieved
// bandwidth and loaded latency out.
type Point struct {
	// Rate is the offered injection rate as a fraction of peak.
	Rate float64 `json:"rate"`
	// OfferedGBps is the offered background load in GB/s.
	OfferedGBps float64 `json:"offered_gbps"`
	// AchievedGBps is the serviced bandwidth (requested bytes over
	// elapsed time, background and probe together).
	AchievedGBps float64 `json:"achieved_gbps"`
	// LatencyNs is the loaded latency: the probe chase's mean round trip.
	LatencyNs float64 `json:"latency_ns"`
	// MaxLatencyNs is the worst probe round trip in the window.
	MaxLatencyNs float64 `json:"max_latency_ns"`
	// RowHitRate and Occupancy expose the mechanism behind the curve:
	// row-buffer locality of the mixed stream and the time-averaged
	// number of in-flight transactions (Little's law).
	RowHitRate float64 `json:"row_hit_rate"`
	Occupancy  float64 `json:"occupancy"`
}

// Knee is the operating point a latency-aware consumer should run at:
// the highest achieved bandwidth whose loaded latency stays within
// KneeFactor times the idle latency.
type Knee struct {
	// Rate, GBps and LatencyNs identify the knee point.
	Rate      float64 `json:"rate"`
	GBps      float64 `json:"gbps"`
	LatencyNs float64 `json:"latency_ns"`
	// Saturated reports that even the lowest rung exceeded the latency
	// bound, so the knee fell back to the lowest-latency point.
	Saturated bool `json:"saturated,omitempty"`
}

// Curve is the ladder for one (pattern, read-fraction) pair.
type Curve struct {
	Pattern mem.Pattern `json:"pattern"`
	// ReadFrac is the background read fraction (1 = all reads).
	ReadFrac float64 `json:"read_frac"`
	// IdleLatencyNs is the unloaded chase round trip — the y-intercept
	// of the curve and the baseline of the knee criterion. The chase is
	// independent of the background pattern and ratio, so every curve
	// of a surface shares one value.
	IdleLatencyNs float64 `json:"idle_latency_ns"`
	Points        []Point `json:"points"`
	Knee          Knee    `json:"knee"`
}

// Surface is a full bandwidth–latency characterization of one device.
type Surface struct {
	Device device.Info `json:"device"`
	Config Config      `json:"config"`
	Curves []Curve     `json:"curves"`
	// Stopped is the canonical partial-result tag (runstate.Canceled or
	// runstate.Deadline) when the generating context ended before the
	// full ladder was measured; empty for a complete surface. A stopped
	// surface carries every rung measured before the stop, with knees
	// detected over the measured points only.
	Stopped string `json:"stopped,omitempty"`
}

// Observer is notified after each measured injection-ladder rung — the
// hook the service layer uses to stream per-point job events. It is
// called from the generating goroutine, in ladder order: rungs may be
// simulated concurrently (each on its own model clone), but observation
// and assembly always follow the deterministic ladder sequence, so a
// parallel generation is indistinguishable from a sequential one.
type Observer func(pat mem.Pattern, readFrac float64, p Point)

// maxWorkers overrides the rung-generation worker count when positive;
// tests pin it to compare sequential and parallel generation directly.
var maxWorkers = 0

func workerCount() int {
	if maxWorkers > 0 {
		return maxWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// GenerateShardWith measures only the curves at pattern-major indices
// [lo, hi) of the configuration's curve grid — one worker's share of a
// distributed surface. The idle-latency probe is re-measured per shard;
// the simulator is deterministic, so every shard observes the same
// value and MergeShards reassembles a surface identical to a
// single-node run over the whole grid [0, cfg.CurveCount()).
//
// ctx cancels the measurement between ladder rungs (the partial surface
// collected so far is returned, tagged via Stopped), and observe — when
// non-nil — sees every rung as it lands.
func GenerateShardWith(ctx context.Context, dev device.Device, cfg Config, lo, hi int, observe Observer) (*Surface, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > cfg.CurveCount() {
		return nil, fmt.Errorf("surface: curve shard [%d,%d) out of the %d-curve grid", lo, hi, cfg.CurveCount())
	}
	ms, ok := dev.(device.MemorySystem)
	if !ok {
		return nil, fmt.Errorf("surface: target %q does not expose its memory system", dev.Info().ID)
	}
	model := ms.MemModel()
	info := dev.Info()
	peak := info.PeakMemGBps
	if peak <= 0 {
		peak = model.Config().PeakGBps()
	}
	// Validate shapes against the device's real traffic granule before
	// simulating anything, so a mis-sized explicit 2D shape fails fast.
	elems := int(cfg.ArrayBytes / int64(model.Config().BurstBytes))
	for _, p := range cfg.Patterns {
		if err := p.Validate(elems); err != nil {
			return nil, fmt.Errorf("surface: on %s (%d-byte bursts): %w", info.ID, model.Config().BurstBytes, err)
		}
	}

	// Idle latency: the chase alone, serialized hop by hop. The probe
	// walk is independent of the background pattern and ratio, so one
	// measurement serves every curve.
	scr := getScratch()
	_, isp := obs.StartSpan(ctx, "surface.idle", "hops", strconv.Itoa(cfg.ProbeHops))
	idle := model.ServiceLoadedRouted(nil, scr.idleProbe(model, elems, cfg.ProbeHops), dram.LoadedOptions{})
	idleNs := idle.ProbeAvgNs()
	isp.End()

	s := &Surface{Device: info, Config: cfg}
	if workers := workerCount(); workers > 1 {
		// Each worker takes a scratch of its own; this one can serve one.
		scratchPool.Put(scr)
		return generateParallel(ctx, s, model, cfg, lo, hi, peak, idleNs, workers, observe)
	}
	defer scratchPool.Put(scr)
	for pi, pat := range cfg.Patterns {
		for ri, frac := range cfg.RWRatios {
			if ci := pi*len(cfg.RWRatios) + ri; ci < lo || ci >= hi {
				continue
			}
			curve, err := generateCurve(ctx, model, cfg, pat, frac, peak, idleNs, observe, scr)
			if err != nil {
				return nil, err
			}
			// A curve the cancellation cut before its first rung carries no
			// information; drop it rather than report a bogus zero knee.
			if len(curve.Points) > 0 {
				s.Curves = append(s.Curves, curve)
			}
			if st := runstate.FromContext(ctx); st != "" {
				s.Stopped = st
				return s, nil
			}
		}
	}
	return s, nil
}

// rungJob is one injection-ladder rung of one curve, in ladder order.
type rungJob struct {
	ci   int // curve index in pattern-major order
	pat  mem.Pattern
	frac float64
	rate float64
}

// generateParallel measures a shard's rungs with a worker pool. Every
// rung is an independent simulation (each worker owns a model clone and
// every ServiceLoadedRouted call starts cold), so the rungs of all curves
// fan out freely; the collector then observes and assembles them in
// strict ladder order, which keeps the output — including partial,
// canceled output — identical to the sequential path's.
func generateParallel(ctx context.Context, s *Surface, model *dram.Model, cfg Config, lo, hi int, peak, idleNs float64, workers int, observe Observer) (*Surface, error) {
	var jobs []rungJob
	for pi, pat := range cfg.Patterns {
		for ri, frac := range cfg.RWRatios {
			ci := pi*len(cfg.RWRatios) + ri
			if ci < lo || ci >= hi {
				continue
			}
			for _, rate := range cfg.Rates {
				jobs = append(jobs, rungJob{ci: ci, pat: pat, frac: frac, rate: rate})
			}
		}
	}
	if len(jobs) == 0 {
		return s, nil
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// stop cancels the uncollected tail: on context end or on the first
	// rung error, workers skip their remaining claims.
	ctx2, stop := context.WithCancel(ctx)
	defer stop()

	points := make([]Point, len(jobs))
	measured := make([]bool, len(jobs))
	errs := make([]error, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			wm := model.Clone() // worker-private arena: allocation-free rungs
			scr := getScratch()
			defer scratchPool.Put(scr)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if ctx2.Err() == nil {
					_, sp := obs.StartSpan(ctx2, "surface.rung",
						"curve", strconv.Itoa(jobs[i].ci),
						"rate", strconv.FormatFloat(jobs[i].rate, 'g', -1, 64))
					p, err := measureRung(wm, cfg, jobs[i], peak, scr)
					if err != nil {
						sp.SetAttr("error", err.Error())
						errs[i] = err
						stop()
					} else {
						points[i], measured[i] = p, true
					}
					sp.End()
				}
				close(done[i])
			}
		}()
	}

	// Collect in ladder order: a cancellation (possibly issued by the
	// observer itself) stops collection at the rung boundary, exactly
	// like the sequential path — rungs simulated beyond it are discarded.
	kept := 0
	var firstErr error
	for i := range jobs {
		if ctx.Err() != nil {
			break
		}
		<-done[i]
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
		if !measured[i] {
			break
		}
		kept = i + 1
		if observe != nil {
			observe(jobs[i].pat, jobs[i].frac, points[i])
		}
	}
	stop()
	for i := range jobs {
		<-done[i] // join: closed channels drain instantly
	}
	if firstErr != nil {
		return nil, firstErr
	}

	for i := 0; i < kept; {
		j := i
		for j < kept && jobs[j].ci == jobs[i].ci {
			j++
		}
		curve := Curve{
			Pattern:       jobs[i].pat,
			ReadFrac:      jobs[i].frac,
			IdleLatencyNs: idleNs,
			Points:        append([]Point(nil), points[i:j]...),
		}
		curve.Knee = detectKnee(curve, cfg.KneeFactor)
		s.Curves = append(s.Curves, curve)
		i = j
	}
	if st := runstate.FromContext(ctx); st != "" {
		s.Stopped = st
	}
	return s, nil
}

// MergeShards reassembles curve shards (in shard order — the order
// PartitionCurves produced them) into one surface. Shards carry the
// device and configuration of their generation; the first shard's are
// taken for the merged surface. A stopped shard marks the whole merged
// surface stopped, since the assembled ladder is partial.
func MergeShards(shards []*Surface) (*Surface, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("surface: no shards to merge")
	}
	out := &Surface{Device: shards[0].Device, Config: shards[0].Config}
	for _, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("surface: missing shard in merge")
		}
		out.Curves = append(out.Curves, sh.Curves...)
		if sh.Stopped != "" && out.Stopped == "" {
			out.Stopped = sh.Stopped
		}
	}
	return out, nil
}

// Stream-tag layout of the surface traffic. The write stream reuses the
// benchmark's destination tag so per-stream DRAM placement (FPGA-style
// InterleaveBytes == 0) banks it like a destination array.
const (
	writeStream = 0
	readStream  = 1
	probeStream = 3
)

// rungScratch caches the address-decoded request streams between rung
// measurements, so a ladder sweep pays stream construction and DRAM
// address decode per curve instead of per rung: the background walk is
// redecoded only when the (pattern, read-fraction) pair changes and
// the probe chase once per call and worker, with both rewound before
// every rung. The generators are deterministic and the decode
// timing-independent, so a rewound stream replays exactly what
// per-rung construction would produce (mem's reset parity and dram's routed parity tests pin
// this), and a scratch-backed sweep reproduces it bit for bit. The
// idle-latency chase, measured once per call, decodes into the scratch
// too.
//
// Scratches outlive the call that used them: scratchPool hands them
// to later calls, whose first rung decodes into the recycled arrays.
type rungScratch struct {
	// stale marks streams decoded by another call, possibly under
	// another model's address map and configuration: the next rung
	// decodes both afresh.
	stale bool
	pat   mem.Pattern
	frac  float64
	bg    *dram.Prerouted
	probe *dram.Prerouted
	idle  *dram.Prerouted // the idle-latency chase, decoded once per call
}

// scratchPool recycles rung scratches across surface calls, so a
// ladder sweep allocates its decoded streams once per process rather
// than once per call.
var scratchPool = sync.Pool{New: func() any { return new(rungScratch) }}

// getScratch takes a scratch from scratchPool, marked stale; return it
// with scratchPool.Put when the call is done.
func getScratch() *rungScratch {
	s := scratchPool.Get().(*rungScratch)
	s.stale = true
	return s
}

// idleProbe decodes the idle-latency chase of hops hops over elems
// bursts into the scratch's recycled array, rewound.
func (s *rungScratch) idleProbe(model *dram.Model, elems, hops int) *dram.Prerouted {
	s.idle = model.PrerouteInto(s.idle, chase(elems, model.Config().BurstBytes, hops), hops)
	return s.idle
}

// sources returns the rewound background and probe streams for job,
// rebuilding what the previous rung cannot serve.
func (s *rungScratch) sources(model *dram.Model, cfg Config, job rungJob) (bg, probe *dram.Prerouted, err error) {
	burst := model.Config().BurstBytes
	elems := int(cfg.ArrayBytes / int64(burst))
	if s.stale {
		s.probe = model.PrerouteInto(s.probe, chase(elems, burst, cfg.WindowTxns), cfg.WindowTxns)
	} else {
		s.probe.Reset()
	}
	if !s.stale && job.pat == s.pat && job.frac == s.frac {
		s.bg.Reset()
		return s.bg, s.probe, nil
	}
	// Same-direction scheduling runs mirror the controller's own
	// write-buffering depth, so the mixed stream pays turnarounds at the
	// rate the closed-loop model does.
	mixGroup := model.Config().BatchSize * model.Config().Channels
	src, err := background(job.pat, elems, burst, job.frac, mixGroup)
	if err != nil {
		return nil, nil, err
	}
	// The background wraps endlessly; a window's service consumes at most
	// MaxTxns requests plus one transaction of lookahead.
	s.bg, s.pat, s.frac = model.PrerouteInto(s.bg, src, cfg.WindowTxns+1), job.pat, job.frac
	s.stale = false
	return s.bg, s.probe, nil
}

// measureRung simulates one injection-ladder rung cold on model: the
// mixed background stream at the rung's offered rate with the probe
// chase threading through it.
func measureRung(model *dram.Model, cfg Config, job rungJob, peakGBps float64, scr *rungScratch) (Point, error) {
	burst := model.Config().BurstBytes
	bg, probe, err := scr.sources(model, cfg, job)
	if err != nil {
		return Point{}, err
	}
	interNs := float64(burst) / (job.rate * peakGBps) // GB/s == B/ns
	res := model.ServiceLoadedRouted(bg, probe, dram.LoadedOptions{
		InterArrivalNs: interNs,
		MaxTxns:        uint64(cfg.WindowTxns),
		// Measure the steady state, not the cold ramp into it.
		WarmupTxns: uint64(cfg.WindowTxns / 4),
	})
	lat, maxLat := res.ProbeAvgNs(), res.ProbeMaxNs
	if res.ProbeTxns == 0 {
		// The system was so congested that not one probe hop finished
		// inside the measured window: the loaded latency is at least
		// the window itself. Report that bound instead of a bogus 0.
		lat = res.Seconds * 1e9
		maxLat = lat
	}
	return Point{
		Rate:         job.rate,
		OfferedGBps:  job.rate * peakGBps,
		AchievedGBps: res.RequestedGBps(),
		LatencyNs:    lat,
		MaxLatencyNs: maxLat,
		RowHitRate:   res.RowHitRate(),
		Occupancy:    res.AvgOccupancy(),
	}, nil
}

// generateCurve measures one (pattern, read-fraction) ladder against
// the shared idle latency, stopping between rungs when ctx ends (the
// caller inspects ctx to tag the partial surface).
func generateCurve(ctx context.Context, model *dram.Model, cfg Config, pat mem.Pattern, readFrac, peakGBps, idleNs float64, observe Observer, scr *rungScratch) (Curve, error) {
	curve := Curve{Pattern: pat, ReadFrac: readFrac, IdleLatencyNs: idleNs}
	for _, rate := range cfg.Rates {
		if ctx.Err() != nil {
			break
		}
		_, sp := obs.StartSpan(ctx, "surface.rung",
			"rate", strconv.FormatFloat(rate, 'g', -1, 64),
			"read_frac", strconv.FormatFloat(readFrac, 'g', -1, 64))
		p, err := measureRung(model, cfg, rungJob{pat: pat, frac: readFrac, rate: rate}, peakGBps, scr)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return Curve{}, err
		}
		sp.End()
		curve.Points = append(curve.Points, p)
		if observe != nil {
			observe(pat, readFrac, p)
		}
	}
	curve.Knee = detectKnee(curve, cfg.KneeFactor)
	return curve, nil
}

// chase builds the probe walk: hops covers both the idle measurement
// and a whole loaded window (the probe chain never runs dry before the
// window's transaction budget is spent).
func chase(elems int, burst uint32, hops int) *mem.ChaseIter {
	// The chase array lives far from the traffic arrays (stream bases are
	// 2 GiB apart, see device.StreamBases).
	ch, err := mem.NewChaseIter(uint64(probeStream)<<31, elems, burst, hops, probeStream)
	if err != nil {
		// Unreachable: elems and burst were validated.
		panic(err)
	}
	return ch
}

// background assembles the mixed read/write traffic for one curve.
// Each direction's walk wraps around when it reaches the end of its
// array, so the background can never run dry inside a measurement
// window and dilute the loaded latency toward idle.
func background(pat mem.Pattern, elems int, burst uint32, readFrac float64, mixGroup int) (mem.Source, error) {
	reads, err := mem.NewIter(pat, uint64(readStream)<<31, elems, burst, mem.Read, readStream)
	if err != nil {
		return nil, err
	}
	if readFrac >= 1 {
		return repeat{reads}, nil
	}
	writes, err := mem.NewIter(pat, uint64(writeStream)<<31, elems, burst, mem.Write, writeStream)
	if err != nil {
		return nil, err
	}
	if readFrac <= 0 {
		return repeat{writes}, nil
	}
	return mem.NewMix(repeat{reads}, repeat{writes}, readFrac, mixGroup), nil
}

// repeat cycles a resettable walk forever; the measurement window
// (LoadedOptions.MaxTxns) bounds the run instead.
type repeat struct{ it *mem.Iter }

// Reset rewinds the cycling walk to its start.
func (r repeat) Reset() { r.it.Reset() }

// NextBatch emits the cycling walk, rewinding at each wrap so the stream
// never reports exhaustion.
func (r repeat) NextBatch(dst []mem.Request) int {
	n := 0
	for n < len(dst) {
		got := r.it.NextBatch(dst[n:])
		if got == 0 {
			r.it.Reset()
			if got = r.it.NextBatch(dst[n:]); got == 0 {
				break
			}
		}
		n += got
	}
	return n
}

// detectKnee picks the highest-bandwidth point within the latency
// budget, falling back to the lowest-latency point when the whole
// ladder blew past it.
func detectKnee(c Curve, factor float64) Knee {
	budget := factor * c.IdleLatencyNs
	best := -1
	for i, p := range c.Points {
		if p.LatencyNs > budget {
			continue
		}
		if best < 0 || p.AchievedGBps > c.Points[best].AchievedGBps {
			best = i
		}
	}
	if best >= 0 {
		p := c.Points[best]
		return Knee{Rate: p.Rate, GBps: p.AchievedGBps, LatencyNs: p.LatencyNs}
	}
	// Saturated from the first rung: report the gentlest point.
	for i, p := range c.Points {
		if best < 0 || p.LatencyNs < c.Points[best].LatencyNs {
			best = i
		}
	}
	if best < 0 {
		return Knee{Saturated: true}
	}
	p := c.Points[best]
	return Knee{Rate: p.Rate, GBps: p.AchievedGBps, LatencyNs: p.LatencyNs, Saturated: true}
}

// MinKneeGBps returns the most conservative knee over all curves — the
// bandwidth the device sustains at acceptable latency under its least
// favourable measured traffic. It is the scalar the DSE layer ranks by
// under the "knee" objective.
func (s *Surface) MinKneeGBps() float64 {
	min := 0.0
	for i, c := range s.Curves {
		if i == 0 || c.Knee.GBps < min {
			min = c.Knee.GBps
		}
	}
	return min
}

// Table renders the surface as one table, the shared shape of the
// mpsurf text/markdown/CSV output and of docs examples.
func (s *Surface) Table() *report.Table {
	tb := report.NewTable("pattern", "read frac", "rate", "offered GB/s",
		"achieved GB/s", "latency ns", "max ns", "row hit", "knee")
	for _, c := range s.Curves {
		for _, p := range c.Points {
			kneeMark := ""
			if p.Rate == c.Knee.Rate {
				kneeMark = "*"
			}
			tb.AddRowf(patternLabel(c.Pattern), c.ReadFrac, p.Rate, p.OfferedGBps,
				p.AchievedGBps, p.LatencyNs, p.MaxLatencyNs, p.RowHitRate, kneeMark)
		}
	}
	return tb
}

// KneeTable summarizes one row per curve.
func (s *Surface) KneeTable() *report.Table {
	tb := report.NewTable("pattern", "read frac", "idle ns", "knee rate",
		"knee GB/s", "knee ns", "saturated")
	for _, c := range s.Curves {
		tb.AddRowf(patternLabel(c.Pattern), c.ReadFrac, c.IdleLatencyNs,
			c.Knee.Rate, c.Knee.GBps, c.Knee.LatencyNs, fmt.Sprintf("%v", c.Knee.Saturated))
	}
	return tb
}

// Chart renders one curve as an ASCII bandwidth-versus-latency plot.
func (c Curve) Chart() *report.Chart {
	ch := &report.Chart{
		Title:  fmt.Sprintf("loaded latency — %s, %.0f%% reads", patternLabel(c.Pattern), c.ReadFrac*100),
		XLabel: "achieved GB/s",
		YLabel: "latency ns",
		LogY:   true,
	}
	x := make([]float64, len(c.Points))
	y := make([]float64, len(c.Points))
	for i, p := range c.Points {
		x[i], y[i] = p.AchievedGBps, p.LatencyNs
	}
	ch.Add(report.Series{Name: "loaded", X: x, Y: y})
	return ch
}

// PatternLabel renders a pattern compactly ("contiguous", "strided:16")
// — the label vocabulary tables, charts and job events share.
func PatternLabel(p mem.Pattern) string { return patternLabel(p) }

// patternLabel renders a pattern compactly ("contiguous", "strided:16").
func patternLabel(p mem.Pattern) string {
	switch p.Kind {
	case mem.Strided:
		return fmt.Sprintf("strided:%d", p.StrideElems)
	case mem.ColMajor2D:
		if p.Rows > 0 && p.Cols > 0 {
			return fmt.Sprintf("colmajor2d:%dx%d", p.Rows, p.Cols)
		}
		return "colmajor2d"
	default:
		return p.Kind.String()
	}
}
