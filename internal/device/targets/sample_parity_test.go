package targets

import (
	"fmt"
	"math"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/gpusim"
	"mpstream/internal/device/sdaccel"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// parityTarget is one board of the sampling-parity tests: the paper
// targets and the HMC-backed AOCL variant, all sampling with
// repeatWindow.
type parityTarget struct {
	name string
	new  func() device.Device
	llc  *cache.Config // the board's cache; nil when it has none
	warm bool          // the board's exact runs see the cache earlier runs left
	copy uint32        // the coalescing window of a vec-1 copy at the target's optimal loop
}

func parityTargets() []parityTarget {
	var out []parityTarget
	cpuLLC, gpuL2 := cpusim.DefaultConfig().LLC, gpusim.DefaultConfig().L2
	llc := map[string]*cache.Config{"cpu": &cpuLLC, "gpu": &gpuL2}
	copyWindow := map[string]uint32{"aocl": aocl.DefaultConfig().LSUBurstBytes, "sdaccel": sdaccel.DefaultConfig().BurstBytes,
		"cpu": cpuLLC.LineBytes, "gpu": gpusim.DefaultConfig().CoalesceBytes}
	for i, id := range IDs() {
		out = append(out, parityTarget{name: id, new: func() device.Device { return repeatTargets()[i] },
			llc: llc[id], warm: id == "cpu", copy: copyWindow[id]})
	}
	hmc := aocl.HMCConfig()
	hmc.SampleWindowTxns = repeatWindow
	return append(out, parityTarget{name: "aocl-hmc", new: func() device.Device { return aocl.NewWithConfig(hmc) }, copy: hmc.LSUBurstBytes})
}

// sampler is the part of device.Board the parity tests drive.
type sampler interface {
	device.MemorySystem
	Reset()
	Sample(k kernel.Kernel, e device.Exec, window uint32, run device.Body) (sample.Estimate, error)
	ServiceDRAM(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement)
	ServiceCache(src mem.Source, window uint64, c *cache.Cache) (short, long device.CacheRun)
}

// cacheBody is a cache-backed device.Body shaped like the CPU model's:
// Board.ServiceCache measured by its cache accesses and DRAM seconds.
func cacheBody(board sampler) device.Body {
	measure := func(r device.CacheRun) sample.Measurement {
		return sample.Measurement{Txns: r.Cache.Accesses, Seconds: r.DRAM.Seconds}
	}
	return func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
		s, l := board.ServiceCache(src, window, c)
		return measure(s), measure(l)
	}
}

// missWindow is cacheBody's measurement of a single window, the way
// windows were simulated before checkpoints: a bounded window starts
// from a cold cache and ends its stream at maxTxns requests, an exact
// run sees the cache as the previous run left it when warm, and starts
// cold otherwise.
func missWindow(model *dram.Model, src mem.Source, maxTxns uint64, c *cache.Cache, warm bool) sample.Measurement {
	if maxTxns > 0 {
		src = mem.NewLimit(src, int(maxTxns))
	}
	if maxTxns > 0 || !warm {
		c.Reset()
	}
	before := c.Stats()
	res := model.Service(cache.NewMissFilter(c, src))
	return sample.Measurement{Txns: c.Stats().Delta(before).Accesses, Seconds: res.Seconds}
}

// Board.Sample simulates each sampled point once, taking the short
// window as a checkpoint of the long one. Its estimates must equal, bit
// for bit, a sequential sample.Run that simulates the two windows as
// separate runs over the same service on one cache, and the board's
// cache must be left as the sequential run leaves it: on the warm CPU
// board an exact run that follows a sampled one sees the long window's
// lines, and on a cold board it starts from a cold cache.
func TestConcurrentSampleMatchesSequential(t *testing.T) {
	const coalesce = 64
	for _, tg := range parityTargets() {
		for _, op := range []kernel.Op{kernel.Copy, kernel.Triad} {
			for _, p := range []mem.Pattern{mem.ContiguousPattern(), mem.ColMajorPattern()} {
				t.Run(fmt.Sprintf("%s/%v/%v", tg.name, op, p.Kind), func(t *testing.T) {
					k := kernel.Kernel{Op: op, VecWidth: 1}
					small := device.Exec{ArrayBytes: repeatSmall, Pattern: p}
					large := device.Exec{ArrayBytes: repeatLarge, Pattern: p}
					txns := func(e device.Exec) uint64 {
						return device.TxnCount(k.Op, e.Elems(k), k.ElemBytes(), p, coalesce)
					}
					if !sample.Exact(txns(small), repeatWindow) || sample.Exact(txns(large), repeatWindow) {
						t.Fatal("the sizes must sit on either side of the sampling threshold")
					}

					board := tg.new().(sampler)
					model := board.MemModel()
					body := board.ServiceDRAM
					window := func(src mem.Source, maxTxns uint64) sample.Measurement {
						res := model.ServiceBounded(src, maxTxns)
						return sample.Measurement{Txns: res.Txns, Seconds: res.Seconds}
					}
					if tg.llc != nil {
						body = cacheBody(board)
						ref := cache.New(*tg.llc)
						window = func(src mem.Source, maxTxns uint64) sample.Measurement {
							return missWindow(model, src, maxTxns, ref, tg.warm)
						}
					}
					// The sequential reference: one cache across every window.
					sequential := func(e device.Exec) sample.Estimate {
						run := func(maxTxns uint64) sample.Measurement {
							src, err := device.KernelSource(k.Op, e.Elems(k), k.ElemBytes(), p, coalesce)
							if err != nil {
								t.Fatal(err)
							}
							return window(src, maxTxns)
						}
						est, err := sample.Run(run, txns(e), repeatWindow)
						if err != nil {
							t.Fatal(err)
						}
						return est
					}
					for i, e := range []device.Exec{small, large, small} {
						got, err := board.Sample(k, e, coalesce, body)
						if err != nil {
							t.Fatal(err)
						}
						if want := sequential(e); got != want {
							t.Errorf("call %d (%d bytes): Board.Sample = %+v, sequential sample.Run = %+v", i, e.ArrayBytes, got, want)
						}
						if got.Sampled != (e == large) {
							t.Errorf("call %d (%d bytes): Sampled = %v", i, e.ArrayBytes, got.Sampled)
						}
					}
				})
			}
		}
	}
}

// checkpointWindows returns the windows TestCheckpointMatchesBoundedRuns
// tries on a stream of total requests: every window up to a global
// batch and one (so some checkpoint truncates the batch crossing it to a
// single request, at every batch boundary in that range), a few
// mid-stream ones, windows whose stream ends inside the controller's
// reorder read-ahead, and windows at and past the stream's end.
func checkpointWindows(cfg dram.Config, total uint64) []uint64 {
	var ws []uint64
	for w := uint64(1); w <= uint64(cfg.BatchSize*cfg.Channels+1); w++ {
		ws = append(ws, w)
	}
	win := uint64(cfg.ReorderWin)
	for _, w := range []uint64{total / 3, total / 2, total - min(total, win/2), total - min(total, win/5), total - 1, total, total + 10} {
		if w > 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// TestCheckpointMatchesBoundedRuns holds both kinds of checkpoint to
// separate runs, bit for bit, on every parity target's memory system
// and a copy and a triad in each pattern:
//
//   - at a bound: ServiceCheckpoint(src, 2w) with At w against
//     ServiceBounded(src, w) and ServiceBounded(src, 2w), the boards
//     without a cache;
//   - at a pause: a stream limited to 2w that pauses at w, against
//     streams limited to w and to 2w, first straight into DRAM, then
//     through a MissFilter on the board's cache (cpu and gpu), where the
//     cache statistics at the checkpoint must equal the short run's.
//
// The long run must also read as far ahead in the stream as the
// separate long run does.
func TestCheckpointMatchesBoundedRuns(t *testing.T) {
	const elems, coalesce = 2048, 64
	for _, tg := range parityTargets() {
		for _, op := range []kernel.Op{kernel.Copy, kernel.Triad} {
			for _, p := range []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16), mem.ColMajorPattern()} {
				t.Run(fmt.Sprintf("%s/%v/%v", tg.name, op, p.Kind), func(t *testing.T) {
					model := tg.new().(device.MemorySystem).MemModel()
					build := func() mem.Source {
						src, err := device.KernelSource(op, elems, 4, p, coalesce)
						if err != nil {
							t.Fatal(err)
						}
						return src
					}
					total := device.TxnCount(op, elems, 4, p, coalesce)
					var c, ref *cache.Cache
					if tg.llc != nil {
						c, ref = cache.New(*tg.llc), cache.New(*tg.llc)
					}
					for _, w := range checkpointWindows(model.Config(), total) {
						// At a bound.
						cp := dram.Checkpoint{At: w}
						src, longSrc := build(), build()
						long := model.ServiceCheckpoint(src, 2*w, &cp)
						if want := model.ServiceBounded(build(), w); cp.Result != want {
							t.Fatalf("window %d of %d: checkpoint at the bound %+v, bounded run %+v", w, total, cp.Result, want)
						}
						if want := model.ServiceBounded(longSrc, 2*w); long != want {
							t.Fatalf("window %d of %d: long run %+v, bounded run %+v", w, total, long, want)
						}
						if got, want := unread(src), unread(longSrc); got != want {
							t.Fatalf("window %d of %d: the long run left %d requests unread, the bounded run %d", w, total, got, want)
						}

						// At a pause, straight into DRAM.
						n := int(w)
						cp = dram.Checkpoint{}
						long = model.ServiceCheckpoint(mem.NewPausingLimit(build(), n, n), 0, &cp)
						if want := model.Service(mem.NewLimit(build(), n)); cp.Result != want {
							t.Fatalf("window %d of %d: checkpoint at the pause %+v, limited run %+v", w, total, cp.Result, want)
						}
						if want := model.Service(mem.NewLimit(build(), 2*n)); long != want {
							t.Fatalf("window %d of %d: paused long run %+v, limited run %+v", w, total, long, want)
						}

						// At a pause, through the board's cache.
						if c == nil {
							continue
						}
						c.Reset()
						ref.Reset()
						var at cache.Stats
						cp = dram.Checkpoint{Fork: func() { at = c.Stats() }}
						long = model.ServiceCheckpoint(cache.NewMissFilter(c, mem.NewPausingLimit(build(), n, n)), 0, &cp)
						short := model.Service(cache.NewMissFilter(ref, mem.NewLimit(build(), n)))
						if cp.Result != short || at != ref.Stats() {
							t.Fatalf("window %d of %d: checkpoint through the cache %+v with %+v, limited run %+v with %+v",
								w, total, cp.Result, at, short, ref.Stats())
						}
						ref.Reset()
						if want := model.Service(cache.NewMissFilter(ref, mem.NewLimit(build(), 2*n))); long != want || c.Stats() != ref.Stats() {
							t.Fatalf("window %d of %d: paused long run through the cache %+v with %+v, limited run %+v with %+v",
								w, total, long, c.Stats(), want, ref.Stats())
						}
					}
				})
			}
		}
	}
}

// unread drains src and counts the requests it still held.
func unread(src mem.Source) int {
	var buf [256]mem.Request
	n := 0
	for k := len(buf); k == len(buf); n += k {
		k = mem.Fill(src, buf[:])
	}
	return n
}

// sampledSeconds pins each target's full Seconds on the sampled side of
// its threshold, as sequential sampling computed them: the mechanism
// math around Board.Sample must see the same memory estimates.
var sampledSeconds = []struct {
	target  string
	op      kernel.Op
	pattern mem.PatternKind
	bits    uint64
}{
	{"aocl", kernel.Copy, mem.Contiguous, 0x3fab2efbefc26f9c},      // 0.05309283544303797
	{"aocl", kernel.Copy, mem.ColMajor2D, 0x3fd62397a486cb49},      // 0.3459223849014746
	{"aocl", kernel.Triad, mem.Contiguous, 0x3fab2efbefc26f9c},     // 0.05309283544303797
	{"aocl", kernel.Triad, mem.ColMajor2D, 0x3fe17737b2ba7160},     // 0.5458029261385882
	{"sdaccel", kernel.Copy, mem.Contiguous, 0x3fc6deb7f4ac8b3b},   // 0.17867183157894737
	{"sdaccel", kernel.Copy, mem.ColMajor2D, 0x40277e038a3c0c9d},   // 11.746120757894738
	{"sdaccel", kernel.Triad, mem.Contiguous, 0x3fc6deb7f4ac8b3b},  // 0.17867183157894737
	{"sdaccel", kernel.Triad, mem.ColMajor2D, 0x40319e3ed6f74ca6},  // 17.618146357894737
	{"cpu", kernel.Copy, mem.Contiguous, 0x3f77020c78ec1121},       // 0.005617188186765072
	{"cpu", kernel.Copy, mem.ColMajor2D, 0x3fb0622e5bfefe64},       // 0.06399812456128867
	{"cpu", kernel.Triad, mem.Contiguous, 0x3f863be3d8c6761c},      // 0.010856418660121263
	{"cpu", kernel.Triad, mem.ColMajor2D, 0x3fb059585365e722},      // 0.06386329685292627
	{"gpu", kernel.Copy, mem.Contiguous, 0x3f435d79d05a7cf1},       // 0.0005909771723117391
	{"gpu", kernel.Copy, mem.ColMajor2D, 0x3f749cff063ab1cb},       // 0.00503253573303337
	{"gpu", kernel.Triad, mem.Contiguous, 0x3f51f5c84ef8cca9},      // 0.0010961967599428058
	{"gpu", kernel.Triad, mem.ColMajor2D, 0x3f88899ed1bf92fa},      // 0.011981240058909649
	{"aocl-hmc", kernel.Copy, mem.Contiguous, 0x3fab2efbefc26f9c},  // 0.05309283544303797
	{"aocl-hmc", kernel.Copy, mem.ColMajor2D, 0x3fab2efbefc26f9c},  // 0.05309283544303797
	{"aocl-hmc", kernel.Triad, mem.Contiguous, 0x3fab2efbefc26f9c}, // 0.05309283544303797
	{"aocl-hmc", kernel.Triad, mem.ColMajor2D, 0x3fab2efbefc26f9c}, // 0.05309283544303797
}

// cpuExactAfterSampled pins the seconds of an exact CPU kernel run right
// after a sampled one on the same device: it sees the LLC the long
// sampling window left behind (a cold LLC gives other seconds).
var cpuExactAfterSampled = map[[2]string]uint64{
	{"copy", "contiguous"}:  0x3ee12e0be826d695, // 8.192e-06, cold 1.1014508986873368e-05
	{"copy", "colmajor2d"}:  0x3f1207984f1982d6, // 6.877772445924453e-05, cold 6.879327457495925e-05
	{"triad", "contiguous"}: 0x3ee12e0be826d695, // 8.192e-06, cold 2.1234686476866e-05
	{"triad", "colmajor2d"}: 0x3f1a2dc9003b2e99, // 9.986438095238095e-05, cold as well
}

func TestSampledSecondsUnchanged(t *testing.T) {
	targets := make(map[string]parityTarget)
	for _, tg := range parityTargets() {
		targets[tg.name] = tg
	}
	for _, c := range sampledSeconds {
		t.Run(fmt.Sprintf("%s/%v/%v", c.target, c.op, c.pattern), func(t *testing.T) {
			dev := targets[c.target].new()
			k := kernel.Kernel{Op: c.op, VecWidth: 1}
			k.Loop = dev.Info().OptimalLoop
			p := mem.Pattern{Kind: c.pattern}
			if got := seconds(t, dev, k, device.Exec{ArrayBytes: repeatLarge, Pattern: p}); math.Float64bits(got) != c.bits {
				t.Errorf("sampled seconds = %v, want %v", got, math.Float64frombits(c.bits))
			}
			if c.target != "cpu" {
				return
			}
			want := cpuExactAfterSampled[[2]string{c.op.String(), c.pattern.String()}]
			if got := seconds(t, dev, k, device.Exec{ArrayBytes: repeatSmall, Pattern: p}); math.Float64bits(got) != want {
				t.Errorf("exact seconds after a sampled run = %v, want %v", got, math.Float64frombits(want))
			}
		})
	}
}
