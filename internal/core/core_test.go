package core

import (
	"context"
	"strings"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

func dev(t *testing.T, id string) device.Device {
	t.Helper()
	d, err := targets.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero bytes", func(c *Config) { c.ArrayBytes = 0 }},
		{"negative ntimes", func(c *Config) { c.NTimes = -1 }},
		{"unaligned", func(c *Config) { c.ArrayBytes = 1001 }},
		{"bad pattern", func(c *Config) { c.Pattern = mem.StridedPattern(-2) }},
		{"vec misalign", func(c *Config) { c.VecWidth = 16; c.ArrayBytes = 96 }},
		// Type.Bytes()*VecWidth wraps to a zero element size in uint32.
		{"vec width overflow", func(c *Config) { c.VecWidth = 1 << 30; c.ArrayBytes = 4096 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestRunAllKernelsGPU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayBytes = 1 << 20
	res, err := Run(dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 4 {
		t.Fatalf("got %d kernel results, want 4", len(res.Kernels))
	}
	for _, kr := range res.Kernels {
		if !kr.Verified {
			t.Errorf("%v not verified", kr.Op)
		}
		if kr.GBps <= 0 {
			t.Errorf("%v bandwidth = %v", kr.Op, kr.GBps)
		}
		if len(kr.Times) != DefaultNTimes {
			t.Errorf("%v ran %d times, want %d", kr.Op, len(kr.Times), DefaultNTimes)
		}
		wantBytes := kr.Op.BytesMoved(cfg.ArrayBytes)
		if kr.BytesMoved != wantBytes {
			t.Errorf("%v bytes = %d, want %d", kr.Op, kr.BytesMoved, wantBytes)
		}
	}
	if res.HasResources {
		t.Error("GPU run must not report FPGA resources")
	}
	if res.Device.ID != "gpu" {
		t.Errorf("device id = %q", res.Device.ID)
	}
}

func TestRunFPGAReportsResources(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 1 << 20
	res, err := Run(dev(t, "aocl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasResources || res.Resources.Logic <= 0 {
		t.Error("AOCL run must report synthesis resources")
	}
	if res.FmaxMHz <= 0 {
		t.Error("AOCL run must report fmax")
	}
}

func TestByteAccounting(t *testing.T) {
	// STREAM convention: copy/scale move 2x, add/triad 3x.
	cfg := DefaultConfig()
	cfg.ArrayBytes = 1 << 20
	res, err := Run(dev(t, "cpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel(kernel.Copy).BytesMoved != 2<<20 {
		t.Error("copy bytes wrong")
	}
	if res.Kernel(kernel.Triad).BytesMoved != 3<<20 {
		t.Error("triad bytes wrong")
	}
}

func TestBestTimeExcludesColdRun(t *testing.T) {
	if got := bestTime([]float64{5, 2, 3}); got != 2 {
		t.Errorf("bestTime = %v, want 2", got)
	}
	// The first (cold) iteration is excluded even if fastest.
	if got := bestTime([]float64{1, 2, 3}); got != 2 {
		t.Errorf("bestTime = %v, want 2 (exclude cold)", got)
	}
	if got := bestTime([]float64{7}); got != 7 {
		t.Errorf("single-run bestTime = %v, want 7", got)
	}
	if got := bestTime(nil); got != 0 {
		t.Errorf("empty bestTime = %v, want 0", got)
	}
}

func TestWarmCacheShowsInTimes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 2 << 20 // LLC-resident on the CPU
	res, err := Run(dev(t, "cpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	times := res.Kernel(kernel.Copy).Times
	if times[1] >= times[0] {
		t.Errorf("warm iteration (%.3g) must beat cold (%.3g) on a cache-resident array",
			times[1], times[0])
	}
}

func TestVerifySlice(t *testing.T) {
	if err := VerifySlice([]int32{3, 3, 3}, 3, 0); err != nil {
		t.Errorf("valid int slice rejected: %v", err)
	}
	if err := VerifySlice([]int32{3, 4, 3}, 3, 0); err == nil {
		t.Error("corrupted int slice accepted")
	}
	if err := VerifySlice([]float64{2.5, 2.5}, 2.5, 0); err != nil {
		t.Errorf("valid float slice rejected: %v", err)
	}
	if err := VerifySlice([]float64{2.5, 2.6}, 2.5, 0.01); err == nil {
		t.Error("out-of-tolerance float accepted")
	}
	if err := VerifySlice([]float64{2.5, 2.6}, 2.5, 0.2); err != nil {
		t.Errorf("within-tolerance float rejected: %v", err)
	}
	if err := VerifySlice(nil, 0, 0); err == nil {
		t.Error("nil data accepted")
	}
	if err := VerifySlice("nope", 0, 0); err == nil {
		t.Error("bad type accepted")
	}
	if err := VerifySlice([]int32{2, 3}, 3, 0); err == nil ||
		!strings.Contains(err.Error(), "element 0") {
		t.Errorf("error must name the element: %v", err)
	}
}

func TestTimingOnlyRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Verify = false
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 64 << 20
	res, err := Run(dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	kr := res.Kernel(kernel.Copy)
	if kr.Verified {
		t.Error("timing-only run must not claim verification")
	}
	if kr.GBps <= 0 {
		t.Error("timing-only run must still measure bandwidth")
	}
}

func TestHostIOSlowerThanDevice(t *testing.T) {
	base := DefaultConfig()
	base.Ops = []kernel.Op{kernel.Copy}
	base.ArrayBytes = 16 << 20
	onDev, err := Run(dev(t, "gpu"), base)
	if err != nil {
		t.Fatal(err)
	}
	base.HostIO = true
	hostIO, err := Run(dev(t, "gpu"), base)
	if err != nil {
		t.Fatal(err)
	}
	devBW := onDev.Kernel(kernel.Copy).GBps
	hostBW := hostIO.Kernel(kernel.Copy).GBps
	if hostBW >= devBW/3 {
		t.Errorf("host-IO bandwidth (%.1f) must be PCIe-bound, device-only was %.1f", hostBW, devBW)
	}
	// PCIe-bound copy cannot exceed the link bandwidth.
	if hostBW > 11.5 {
		t.Errorf("host-IO bandwidth %.1f exceeds the 11 GB/s link", hostBW)
	}
}

func TestHostIOVerifies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostIO = true
	cfg.ArrayBytes = 1 << 20
	res, err := Run(dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range res.Kernels {
		if !kr.Verified {
			t.Errorf("%v not verified in host-IO mode", kr.Op)
		}
	}
}

func TestDoubleTypeRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Type = kernel.Float64
	cfg.ArrayBytes = 1 << 20
	res, err := Run(dev(t, "aocl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range res.Kernels {
		if !kr.Verified {
			t.Errorf("%v double run not verified", kr.Op)
		}
	}
}

func TestStridedRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern = mem.ColMajorPattern()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 4 << 20
	strided, err := Run(dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pattern = mem.ContiguousPattern()
	contig, err := Run(dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strided.Kernel(kernel.Copy).GBps >= contig.Kernel(kernel.Copy).GBps {
		t.Error("strided must be slower than contiguous")
	}
	if !strided.Kernel(kernel.Copy).Verified {
		t.Error("strided run must still verify (order does not change results)")
	}
}

func TestUnitConversions(t *testing.T) {
	kr := KernelResult{GBps: 2.5}
	if kr.KBps() != 2.5e6 {
		t.Errorf("KBps = %v", kr.KBps())
	}
	if kr.MBps() != 2500 {
		t.Errorf("MBps = %v", kr.MBps())
	}
}

func TestResultKernelLookup(t *testing.T) {
	r := &Result{Kernels: []KernelResult{{Op: kernel.Copy}, {Op: kernel.Triad}}}
	if r.Kernel(kernel.Triad) == nil {
		t.Error("lookup failed")
	}
	if r.Kernel(kernel.Scale) != nil {
		t.Error("missing op must return nil")
	}
}

// Cross-target shape check at the core level: the paper's headline
// ordering GPU > CPU > AOCL > SDAccel for contiguous copy at 16 MB.
func TestCrossTargetOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 16 << 20
	bw := map[string]float64{}
	for _, id := range targets.IDs() {
		res, err := Run(dev(t, id), cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		bw[id] = res.Kernel(kernel.Copy).GBps
	}
	if !(bw["gpu"] > bw["cpu"] && bw["cpu"] > bw["aocl"] && bw["aocl"] > bw["sdaccel"]) {
		t.Errorf("ordering wrong: %v", bw)
	}
	// Rough factors from the paper at 16 MB: gpu/cpu ~8x, cpu/aocl ~10x,
	// aocl/sdaccel ~3.4x; accept wide bands.
	if r := bw["gpu"] / bw["cpu"]; r < 4 || r > 16 {
		t.Errorf("gpu/cpu ratio = %.1f, want ~8", r)
	}
	if r := bw["aocl"] / bw["sdaccel"]; r < 2 || r > 6 {
		t.Errorf("aocl/sdaccel ratio = %.1f, want ~3.4", r)
	}
}

func TestRunSurface(t *testing.T) {
	cfg := surface.Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern()},
		RWRatios:   []float64{1},
		Rates:      []float64{0.25, 1.0},
		ArrayBytes: 4 << 20,
		WindowTxns: 2048,
		ProbeHops:  64,
	}
	bad := cfg
	bad.KneeFactor = 0.5
	if _, err := RunSurfaceContext(context.Background(), dev(t, "gpu"), bad); err == nil {
		t.Error("sub-unity knee factor must fail validation")
	}
	s, err := RunSurfaceContext(context.Background(), dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Curves) != 1 || len(s.Curves[0].Points) != 2 {
		t.Fatalf("unexpected surface shape: %d curves", len(s.Curves))
	}
	if s.Curves[0].Knee.GBps <= 0 {
		t.Error("knee bandwidth missing")
	}
}

func TestSurfaceProbeDerivation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Triad}
	cfg.Pattern = mem.StridedPattern(8)
	probe := cfg.SurfaceProbe()
	if len(probe.Patterns) != 1 || probe.Patterns[0] != cfg.Pattern {
		t.Errorf("probe pattern %+v does not follow the config", probe.Patterns)
	}
	// Triad reads two streams and writes one: 2/3 reads.
	if len(probe.RWRatios) != 1 || probe.RWRatios[0] < 0.66 || probe.RWRatios[0] > 0.67 {
		t.Errorf("probe read fraction %v, want 2/3", probe.RWRatios)
	}
	if err := probe.Validate(); err != nil {
		t.Errorf("derived probe config invalid: %v", err)
	}
	// Copy: one read, one write.
	cfg.Ops = []kernel.Op{kernel.Copy}
	if got := cfg.SurfaceProbe().RWRatios[0]; got != 0.5 {
		t.Errorf("copy read fraction = %g, want 0.5", got)
	}
}

func TestKneeGBps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	knee, err := KneeGBps(dev(t, "cpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if knee <= 0 {
		t.Errorf("knee = %g, want positive", knee)
	}
	peak := dev(t, "cpu").Info().PeakMemGBps
	if knee > peak {
		t.Errorf("knee %g exceeds peak %g", knee, peak)
	}
	// Deterministic.
	again, err := KneeGBps(dev(t, "cpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if knee != again {
		t.Errorf("knee not deterministic: %g vs %g", knee, again)
	}
}

func TestRunRejectsChase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Chase}
	_, err := Run(dev(t, "cpu"), cfg)
	if err == nil || !strings.Contains(err.Error(), "latency probe") {
		t.Errorf("chase through core.Run must point to the surface subsystem, got %v", err)
	}
}

func TestSurfaceProbeDropsExplicitShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 4 << 20
	// A shape valid for the benchmark arrays but not for the probe's own
	// fixed footprint: the probe must re-derive it.
	cfg.Pattern = mem.Pattern{Kind: mem.ColMajor2D, Rows: 1024, Cols: 1024}
	knee, err := KneeGBps(dev(t, "gpu"), cfg)
	if err != nil {
		t.Fatalf("knee over an explicit 2D shape: %v", err)
	}
	if knee <= 0 {
		t.Errorf("knee = %g", knee)
	}
}
