// Benchmark harness: one benchmark per paper table/figure (regenerating
// the experiment and reporting its headline numbers and deviation from
// the paper as custom metrics), per-target microbenchmarks, and
// throughput benchmarks of the simulator substrate itself.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics:
//
//	sim-GB/s          simulated bandwidth of the headline configuration
//	x-paper           geometric-mean multiplicative deviation from the
//	                  paper's digitized series (1.0 = exact)
package mpstream_test

import (
	"context"
	"testing"

	"mpstream"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/experiments"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// benchExperiment runs one figure reproduction per iteration and reports
// its deviation from the paper.
func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	var last *experiments.Experiment
	for i := 0; i < b.N; i++ {
		e, err := run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = e
	}
	if last != nil {
		b.ReportMetric(last.GeoMeanDeviation(), "x-paper")
	}
}

// BenchmarkFig1a regenerates Figure 1(a): copy bandwidth vs array size on
// all four targets.
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, experiments.Fig1a) }

// BenchmarkFig1b regenerates Figure 1(b): copy bandwidth vs vector width.
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, experiments.Fig1b) }

// BenchmarkFig2 regenerates Figure 2: contiguous vs strided across sizes
// up to 1 GB.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, experiments.Fig2) }

// BenchmarkFig3 regenerates Figure 3: loop management on all targets.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4a regenerates Figure 4(a): all four kernels on all targets.
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, experiments.Fig4a) }

// BenchmarkFig4b regenerates Figure 4(b): AOCL vectorization vs SIMD vs
// compute units.
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, experiments.Fig4b) }

// BenchmarkTargetsTable regenerates the Section IV device table.
func BenchmarkTargetsTable(b *testing.B) { benchExperiment(b, experiments.Targets) }

// BenchmarkPCIe regenerates EXP-X1: host<->device stream bandwidth.
func BenchmarkPCIe(b *testing.B) { benchExperiment(b, experiments.PCIe) }

// BenchmarkResources regenerates EXP-X2: FPGA resource usage by
// optimization route.
func BenchmarkResources(b *testing.B) { benchExperiment(b, experiments.Resources) }

// BenchmarkUnroll regenerates EXP-X3: the unroll-factor ablation.
func BenchmarkUnroll(b *testing.B) { benchExperiment(b, experiments.Unroll) }

// BenchmarkPreshape regenerates EXP-X4: strided vs pre-shaped access.
func BenchmarkPreshape(b *testing.B) { benchExperiment(b, experiments.Preshape) }

// BenchmarkDtype regenerates EXP-X5: int vs double elements.
func BenchmarkDtype(b *testing.B) { benchExperiment(b, experiments.Dtype) }

// BenchmarkEfficiency regenerates EXP-X7: energy efficiency at tuned
// configurations (the paper's future-work item).
func BenchmarkEfficiency(b *testing.B) { benchExperiment(b, experiments.Efficiency) }

// BenchmarkHMC regenerates EXP-X8: the Hybrid Memory Cube variant (the
// paper's closing remark).
func BenchmarkHMC(b *testing.B) { benchExperiment(b, experiments.HMC) }

// BenchmarkStrideSweep regenerates EXP-X9: fixed-stride access.
func BenchmarkStrideSweep(b *testing.B) { benchExperiment(b, experiments.StrideSweep) }

// BenchmarkCopy4MB measures the baseline 4 MB copy per target and reports
// the simulated bandwidth.
func BenchmarkCopy4MB(b *testing.B) {
	for _, id := range targets.IDs() {
		id := id
		b.Run(id, func(b *testing.B) {
			dev, err := targets.ByID(id)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Ops = []kernel.Op{kernel.Copy}
			var bw float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(dev, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bw = res.Kernel(kernel.Copy).GBps
			}
			b.ReportMetric(bw, "sim-GB/s")
		})
	}
}

// BenchmarkTriadVec16FPGA measures the tuned FPGA headline: vec16 triad.
func BenchmarkTriadVec16FPGA(b *testing.B) {
	dev, err := targets.ByID("aocl")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Triad}
	cfg.VecWidth = 16
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(dev, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Kernel(kernel.Triad).GBps
	}
	b.ReportMetric(bw, "sim-GB/s")
}

// BenchmarkHostStream runs the real pure-Go STREAM baseline (EXP-X6) and
// reports the host's actual copy bandwidth.
func BenchmarkHostStream(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := mpstream.RunHost(mpstream.HostConfig{Elems: 1 << 22, NTimes: 2})
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Kernel(mpstream.Copy).GBps
	}
	b.ReportMetric(bw, "host-GB/s")
}

// --- design-space exploration: sequential vs parallel ---

// dseGrid is the multi-knob grid the Explore benchmarks walk: 3 vector
// widths x 2 loop modes x 2 unroll factors = 12 configurations.
func dseGrid() (core.Config, dse.Space) {
	base := core.DefaultConfig()
	base.ArrayBytes = 1 << 20
	base.NTimes = 2
	space := dse.Space{
		VecWidths: []int{1, 4, 16},
		Loops:     []kernel.LoopMode{kernel.NDRange, kernel.FlatLoop},
		Unrolls:   []int{1, 4},
	}
	return base, space
}

// BenchmarkExplore measures the sequential explorer over the grid; its
// parallel counterpart below documents the speedup from fanning grid
// points out over GOMAXPROCS workers.
func BenchmarkExplore(b *testing.B) {
	base, space := dseGrid()
	dev, err := targets.ByID("aocl")
	if err != nil {
		b.Fatal(err)
	}
	var ranked int
	for i := 0; i < b.N; i++ {
		ex := dse.Explore(dev, base, space, kernel.Copy)
		ranked = len(ex.Ranked)
	}
	b.ReportMetric(float64(ranked), "points")
}

// BenchmarkExploreParallel is the same grid evaluated over GOMAXPROCS
// workers and ranked, the path service sweeps take.
func BenchmarkExploreParallel(b *testing.B) {
	base, space := dseGrid()
	base.Ops = []kernel.Op{kernel.Copy}
	newDev := func() (device.Device, error) { return targets.ByID("aocl") }
	var ranked int
	for i := 0; i < b.N; i++ {
		pts, _ := dse.EvalParallelContext(context.Background(), newDev, space.Configs(base), nil, 0, nil)
		ranked = len(dse.Rank(pts, kernel.Copy).Ranked)
	}
	b.ReportMetric(float64(ranked), "points")
}

// --- simulator substrate throughput ---

// BenchmarkDRAMServiceContiguous measures the DRAM model's transaction
// throughput on a streaming workload (simulator speed, not simulated
// bandwidth).
func BenchmarkDRAMServiceContiguous(b *testing.B) {
	m := dram.New(dram.Config{
		Name: "bench", Channels: 2, BanksPerChannel: 8, RowBytes: 8192,
		BurstBytes: 64, BusGBps: 12.8, RowMissNs: 45, TurnaroundNs: 7.5,
		ActWindowNs: 40, InterleaveBytes: 1024,
	})
	const txns = 1 << 16
	b.SetBytes(txns * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := mem.NewIter(mem.ContiguousPattern(), 0, txns, 64, mem.Read, 0)
		if err != nil {
			b.Fatal(err)
		}
		m.Service(it)
	}
}

// BenchmarkDRAMServiceStrided measures the DRAM model on a row-thrashing
// workload.
func BenchmarkDRAMServiceStrided(b *testing.B) {
	m := dram.New(dram.Config{
		Name: "bench", Channels: 2, BanksPerChannel: 8, RowBytes: 8192,
		BurstBytes: 64, BusGBps: 12.8, RowMissNs: 45, TurnaroundNs: 7.5,
		ActWindowNs: 40, InterleaveBytes: 1024,
	})
	const txns = 1 << 16
	b.SetBytes(txns * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := mem.NewIter(mem.ColMajorPattern(), 0, txns, 64, mem.Read, 0)
		if err != nil {
			b.Fatal(err)
		}
		m.Service(it)
	}
}

// BenchmarkCacheAccess measures the LLC model's per-access cost.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench-llc", CapacityBytes: 1 << 20, LineBytes: 64, Ways: 16,
	})
	var out []mem.Request
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = c.Access(mem.Request{Addr: uint64(i*64) % (8 << 20), Size: 64, Op: mem.Read}, out[:0])
	}
	_ = out
}

// BenchmarkCacheAccessResident measures the LLC model's hit path: the gpu
// L2 geometry (24 ways, 32-byte lines, hashed sets) holding a 256 KB
// array, four lines per set, walked again in the order it was filled, so
// every hit lands on its set's least recently used way.
func BenchmarkCacheAccessResident(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench-l2", CapacityBytes: 1536 << 10, LineBytes: 32, Ways: 24, HashSets: true,
	})
	const lines = 8192
	var out []mem.Request
	for i := 0; i < lines; i++ {
		out = c.Access(mem.Request{Addr: uint64(i) * 32, Size: 32, Op: mem.Read}, out[:0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = c.Access(mem.Request{Addr: uint64(i%lines) * 32, Size: 32, Op: mem.Read}, out[:0])
	}
	if c.Stats().Misses != lines {
		b.Fatalf("%d misses, want only the %d warm-up fills", c.Stats().Misses, lines)
	}
}

// BenchmarkPatternIter measures the request-generator throughput: one
// op is one request, pulled through mem.Fill a buffer at a time.
func BenchmarkPatternIter(b *testing.B) {
	it, err := mem.NewIter(mem.ColMajorPattern(), 0, 1<<20, 4, mem.Read, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf [256]mem.Request
	b.ResetTimer()
	for left := b.N; left > 0; {
		n := mem.Fill(it, buf[:min(left, len(buf))])
		if n == 0 {
			it.Reset()
			continue
		}
		left -= n
	}
}

// BenchmarkSurface measures a full bandwidth-latency surface on the GPU
// target — the simulator hot path behind a /v1/surface cache miss, and
// (with BenchmarkFig2) one of the two recorded trajectory benchmarks the
// CI regression gate watches.
func BenchmarkSurface(b *testing.B) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		b.Fatal(err)
	}
	cfg := surface.Config{}.WithDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surface.GenerateShardWith(context.Background(), dev, cfg, 0, cfg.CurveCount(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelApplyTriad measures the functional-execution path.
func BenchmarkKernelApplyTriad(b *testing.B) {
	n := 1 << 20
	dst := make([]float64, n)
	src1 := make([]float64, n)
	src2 := make([]float64, n)
	b.SetBytes(int64(n) * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kernel.Apply(kernel.Triad, 3, dst, src1, src2); err != nil {
			b.Fatal(err)
		}
	}
}
