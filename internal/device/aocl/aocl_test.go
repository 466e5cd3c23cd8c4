package aocl

import (
	"errors"
	"math"
	"slices"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
	"mpstream/internal/stats"
)

// measure runs one invocation and returns STREAM-convention bandwidth in
// GB/s including launch overhead, matching how the paper reports points.
func measure(t *testing.T, d *Device, k kernel.Kernel, arrayBytes int64, p mem.Pattern) float64 {
	t.Helper()
	c, err := d.Compile(k)
	if err != nil {
		t.Fatalf("compile %s: %v", k.Name(), err)
	}
	sec, err := c.Seconds(device.Exec{ArrayBytes: arrayBytes, Pattern: p})
	if err != nil {
		t.Fatalf("seconds %s: %v", k.Name(), err)
	}
	sec += d.LaunchOverheadSeconds()
	return float64(k.Op.BytesMoved(arrayBytes)) / sec / 1e9
}

func flatCopy(v int) kernel.Kernel {
	return kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: v, Loop: kernel.FlatLoop}
}

func TestInfo(t *testing.T) {
	d := New()
	info := d.Info()
	if info.ID != "aocl" || info.Kind != device.FPGA {
		t.Errorf("info = %+v", info)
	}
	if info.PeakMemGBps < 25 || info.PeakMemGBps > 26 {
		t.Errorf("peak = %v, want ~25.6 (paper: 25 GB/s)", info.PeakMemGBps)
	}
	if info.OptimalLoop != kernel.FlatLoop {
		t.Error("AOCL optimal loop management is the flat single work-item loop")
	}
	if d.Link() == nil {
		t.Error("missing PCIe link")
	}
}

// Figure 1(b), AOCL series: copy at 4 MB, vector width sweep.
// Paper: 2.53, 4.61, 8.97, 14.85, 15.26 GB/s.
func TestFig1bVectorSweep(t *testing.T) {
	d := New()
	paper := map[int]float64{1: 2.53, 2: 4.61, 4: 8.97, 8: 14.85, 16: 15.26}
	got := map[int]float64{}
	for _, v := range []int{1, 2, 4, 8, 16} {
		got[v] = measure(t, d, flatCopy(v), 4<<20, mem.ContiguousPattern())
		if !within(got[v], paper[v], 1.25) {
			t.Errorf("vec %d: %.2f GB/s, paper %.2f (factor 1.25 band)", v, got[v], paper[v])
		}
	}
	// Monotone up to v8, then saturation near the interconnect limit.
	if !(got[1] < got[2] && got[2] < got[4] && got[4] < got[8]) {
		t.Errorf("vector scaling not monotone to v8: %v", got)
	}
	if rel := math.Abs(got[16]-got[8]) / got[8]; rel > 0.15 {
		t.Errorf("v16 (%.2f) must saturate near v8 (%.2f), rel diff %.2f", got[16], got[8], rel)
	}
}

// Figure 1(a), AOCL series: copy, vec 1, sizes 1 KB..64 MB.
// Paper: 0.04, 0.14, 0.63, 1.14, 2.03, 2.23, 2.38, 2.53, 2.45.
func TestFig1aSizeSweep(t *testing.T) {
	d := New()
	paper := []float64{0.04, 0.14, 0.63, 1.14, 2.03, 2.23, 2.38, 2.53, 2.45}
	var got []float64
	for i := 0; i < 9; i++ {
		bw := measure(t, d, flatCopy(1), int64(1024)<<(2*i), mem.ContiguousPattern())
		got = append(got, bw)
		if !within(bw, paper[i], 1.6) {
			t.Errorf("size %d KB: %.3f GB/s, paper %.2f (factor 1.6 band)", 1<<(10+2*i)/1024, bw, paper[i])
		}
	}
	// Rising to a plateau: strictly increasing through 1 MB, then flat
	// within 10%.
	if !slices.IsSorted(got[:6]) {
		t.Errorf("small sizes must rise monotonically: %v", got[:6])
	}
	plateau := got[6:]
	if s, _ := stats.Summarize(plateau); s.Max/s.Min > 1.10 {
		t.Errorf("plateau not flat within 10%%: %v", plateau)
	}
}

// Figure 3, AOCL bars: single work-item beats NDRange; nested trails flat
// slightly (pipeline drain per row).
func TestFig3LoopManagement(t *testing.T) {
	d := New()
	bw := map[kernel.LoopMode]float64{}
	for _, lm := range kernel.LoopModes() {
		k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: lm}
		bw[lm] = measure(t, d, k, 4<<20, mem.ContiguousPattern())
	}
	if !(bw[kernel.FlatLoop] > bw[kernel.NestedLoop]) {
		t.Errorf("flat (%.2f) must beat nested (%.2f) on AOCL", bw[kernel.FlatLoop], bw[kernel.NestedLoop])
	}
	if !(bw[kernel.NestedLoop] > bw[kernel.NDRange]) {
		t.Errorf("nested (%.2f) must beat ndrange (%.2f) on AOCL", bw[kernel.NestedLoop], bw[kernel.NDRange])
	}
	if bw[kernel.NestedLoop] < 0.8*bw[kernel.FlatLoop] {
		t.Errorf("nested (%.2f) should trail flat (%.2f) only slightly", bw[kernel.NestedLoop], bw[kernel.FlatLoop])
	}
}

// Figure 2, AOCL strided series: rise to an interior peak then fall as the
// growing stride (row length) defeats bursts and thrashes DRAM rows.
// Paper: 0.1, 0.2, 0.4, 0.7, 0.8, 1.7, 0.5, 0.4, 0.3.
func TestFig2StridedRiseFall(t *testing.T) {
	d := New()
	var got []float64
	for i := 0; i < 9; i++ {
		got = append(got, measure(t, d, flatCopy(1), int64(1024)<<(2*i), mem.ColMajorPattern()))
	}
	peak := slices.Index(got, slices.Max(got))
	if peak < 3 || peak > 6 {
		t.Errorf("strided peak at index %d (%v), want interior (3..6)", peak, got)
	}
	if got[8] > 0.75*got[peak] {
		t.Errorf("largest size (%.2f) must fall well below peak (%.2f)", got[8], got[peak])
	}
	contig := measure(t, d, flatCopy(1), 64<<20, mem.ContiguousPattern())
	if contig < 3*got[8] {
		t.Errorf("contiguous (%.2f) must beat strided (%.2f) by >= 3x at 64 MB", contig, got[8])
	}
}

// Figure 4(b): the three AOCL optimization routes at N = 1..16.
func TestFig4bOptimizationRoutes(t *testing.T) {
	d := New()
	ns := []int{1, 2, 4, 8, 16}

	vec := map[int]float64{}
	simd := map[int]float64{}
	cu := map[int]float64{}
	for _, n := range ns {
		vec[n] = measure(t, d, flatCopy(n), 4<<20, mem.ContiguousPattern())
		simd[n] = measure(t, d, kernel.Kernel{
			Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange,
			Attrs: kernel.Attrs{NumSIMDWorkItems: n, ReqdWorkGroupSize: 256},
		}, 4<<20, mem.ContiguousPattern())
		cu[n] = measure(t, d, kernel.Kernel{
			Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange,
			Attrs: kernel.Attrs{NumComputeUnits: n},
		}, 4<<20, mem.ContiguousPattern())
	}

	// Native vectorization scales reliably (monotone to v8).
	if !(vec[1] < vec[2] && vec[2] < vec[4] && vec[4] < vec[8]) {
		t.Errorf("vectorization must scale monotonically to v8: %v", vec)
	}
	// SIMD and CU peak at an interior N and then degrade — the paper's
	// "less consistent results, eventually giving poorer performance".
	if !(simd[16] < simd[8] || simd[16] < simd[4]) {
		t.Errorf("SIMD must degrade at N=16: %v", simd)
	}
	if !(cu[16] < cu[4]) {
		t.Errorf("CU must degrade at N=16: %v", cu)
	}
	// At full scale, vectorization wins clearly.
	if !(vec[16] > 1.5*simd[16] && vec[16] > 1.5*cu[16]) {
		t.Errorf("vec16 (%.2f) must beat simd16 (%.2f) and cu16 (%.2f) clearly",
			vec[16], simd[16], cu[16])
	}
}

// Section IV: AOCL-specific optimizations consume more resources than the
// equivalent native vectorization.
func TestResourceUsageVecVsSimdVsCU(t *testing.T) {
	d := New()
	for _, n := range []int{2, 4, 8, 16} {
		rVec := compileRes(t, d, flatCopy(n))
		rSimd := compileRes(t, d, kernel.Kernel{
			Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange,
			Attrs: kernel.Attrs{NumSIMDWorkItems: n, ReqdWorkGroupSize: 256}})
		rCU := compileRes(t, d, kernel.Kernel{
			Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange,
			Attrs: kernel.Attrs{NumComputeUnits: n}})
		if !(rVec.Logic < rSimd.Logic && rSimd.Logic < rCU.Logic) {
			t.Errorf("N=%d: logic vec=%d simd=%d cu=%d, want vec < simd < cu",
				n, rVec.Logic, rSimd.Logic, rCU.Logic)
		}
	}
}

func compileRes(t *testing.T, d *Device, k kernel.Kernel) fabric.Resources {
	t.Helper()
	c, err := d.Compile(k)
	if err != nil {
		t.Fatalf("compile %s: %v", k.Name(), err)
	}
	r, ok := c.Resources()
	if !ok {
		t.Fatal("FPGA plan must report resources")
	}
	return r
}

func TestDoubleTypeDoublesIssue(t *testing.T) {
	d := New()
	i32 := measure(t, d, flatCopy(1), 4<<20, mem.ContiguousPattern())
	f64 := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Float64, VecWidth: 1, Loop: kernel.FlatLoop},
		4<<20, mem.ContiguousPattern())
	ratio := f64 / i32
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("double/int copy ratio = %.2f, want ~2 (64-bit coalesced access)", ratio)
	}
}

func TestUnrollActsLikeVectorization(t *testing.T) {
	d := New()
	u8 := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1,
		Loop: kernel.FlatLoop, Attrs: kernel.Attrs{Unroll: 8}}, 4<<20, mem.ContiguousPattern())
	v8 := measure(t, d, flatCopy(8), 4<<20, mem.ContiguousPattern())
	if !within(u8, v8, 1.2) {
		t.Errorf("unroll 8 (%.2f) should track vec 8 (%.2f)", u8, v8)
	}
}

func TestAllKernelsMemoryBound(t *testing.T) {
	d := New()
	bws := map[kernel.Op]float64{}
	for _, op := range kernel.Ops() {
		k := kernel.Kernel{Op: op, Type: kernel.Int32, VecWidth: 1, Loop: kernel.FlatLoop}
		bws[op] = measure(t, d, k, 4<<20, mem.ContiguousPattern())
	}
	// Copy and scale move 2 streams, add and triad 3: with per-stream
	// issue-limited pipelines the 3-stream kernels report more GB/s.
	if !(bws[kernel.Add] > bws[kernel.Copy]) {
		t.Errorf("add (%.2f) must report more than copy (%.2f): 3 concurrent streams", bws[kernel.Add], bws[kernel.Copy])
	}
	if !within(bws[kernel.Scale], bws[kernel.Copy], 1.1) {
		t.Errorf("scale (%.2f) must track copy (%.2f)", bws[kernel.Scale], bws[kernel.Copy])
	}
	if !within(bws[kernel.Triad], bws[kernel.Add], 1.1) {
		t.Errorf("triad (%.2f) must track add (%.2f)", bws[kernel.Triad], bws[kernel.Add])
	}
}

func TestCompileRejects(t *testing.T) {
	d := New()
	// Invalid kernel.
	if _, err := d.Compile(kernel.Kernel{Op: kernel.Copy, VecWidth: 3, Loop: kernel.FlatLoop}); err == nil {
		t.Error("invalid vector width accepted")
	}
	// SIMD without reqd_work_group_size (AOCL requirement).
	if _, err := d.Compile(kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1,
		Loop: kernel.NDRange, Attrs: kernel.Attrs{NumSIMDWorkItems: 4}}); err == nil {
		t.Error("SIMD without reqd_work_group_size accepted")
	}
	// A design too large for the part.
	huge := kernel.Kernel{Op: kernel.Triad, Type: kernel.Float64, VecWidth: 16,
		Loop: kernel.FlatLoop, Attrs: kernel.Attrs{Unroll: 64, NumComputeUnits: 16}}
	_, err := d.Compile(huge)
	if err == nil {
		t.Fatal("oversized design accepted")
	}
	if !errors.Is(err, fabric.ErrDoesNotFit) {
		t.Errorf("error %v must wrap ErrDoesNotFit", err)
	}
}

func TestSecondsErrors(t *testing.T) {
	d := New()
	c, err := d.Compile(flatCopy(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seconds(device.Exec{ArrayBytes: 1023, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("non-multiple array bytes accepted")
	}
	if _, err := c.Seconds(device.Exec{ArrayBytes: 6 << 30, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("arrays exceeding device memory accepted")
	}
}

func TestPlanMetadata(t *testing.T) {
	d := New()
	k := flatCopy(4)
	c, err := d.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if mhz, ok := c.FmaxMHz(); !ok || mhz <= 0 || mhz > 316 {
		t.Errorf("fmax = %v ok=%v", mhz, ok)
	}
	res, ok := c.Resources()
	if !ok || res.Logic <= 0 {
		t.Errorf("resources = %+v ok=%v", res, ok)
	}
	if err := DefaultConfig().Part.Fit(res); err != nil {
		t.Errorf("vec4 copy must fit: %v", err)
	}
}

func TestSampledLargeRunConsistent(t *testing.T) {
	// Bandwidth at 64 MB and 256 MB must be nearly identical (both deep
	// in the plateau), confirming sampled extrapolation stays sane.
	d := New()
	a := measure(t, d, flatCopy(1), 64<<20, mem.ContiguousPattern())
	b := measure(t, d, flatCopy(1), 256<<20, mem.ContiguousPattern())
	if !within(a, b, 1.05) {
		t.Errorf("plateau bandwidths diverge: 64MB %.3f vs 256MB %.3f", a, b)
	}
}

func TestLaunchOverheadDominatesSmallArrays(t *testing.T) {
	d := New()
	bw := measure(t, d, flatCopy(1), 1024, mem.ContiguousPattern())
	// 2 KB moved over ~48 us: about 0.04 GB/s.
	if bw > 0.1 {
		t.Errorf("1 KB bandwidth = %.3f GB/s, must be launch-overhead bound (<0.1)", bw)
	}
}

func TestHMCConfigIdentity(t *testing.T) {
	d := NewWithConfig(HMCConfig())
	info := d.Info()
	if info.ID != "aocl-hmc" {
		t.Errorf("HMC id = %q", info.ID)
	}
	if info.PeakMemGBps != 160 {
		t.Errorf("HMC peak = %v, want 160", info.PeakMemGBps)
	}
	// Default identity is unchanged.
	if New().Info().ID != "aocl" {
		t.Error("default identity broken")
	}
}

func TestHMCWideVectorCeiling(t *testing.T) {
	ddr3 := measure(t, New(), flatCopy(16), 4<<20, mem.ContiguousPattern())
	hmc := measure(t, NewWithConfig(HMCConfig()), flatCopy(16), 4<<20, mem.ContiguousPattern())
	if hmc < 1.6*ddr3 {
		t.Errorf("HMC vec16 (%.1f) must clearly beat DDR3 vec16 (%.1f)", hmc, ddr3)
	}
	// The new ceiling is the 1024-bit interconnect at the kernel clock,
	// well under the 160 GB/s memory peak.
	if hmc > 40 {
		t.Errorf("HMC vec16 = %.1f, should be interconnect-bound (<40)", hmc)
	}
}

func TestReqdWorkGroupSizeHelpsNDRange(t *testing.T) {
	d := New()
	plain := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange}
	without := measure(t, d, plain, 4<<20, mem.ContiguousPattern())
	plain.Attrs.ReqdWorkGroupSize = 256
	with := measure(t, d, plain, 4<<20, mem.ContiguousPattern())
	if with <= without {
		t.Errorf("reqd_work_group_size (%.3f) must beat the plain dispatcher (%.3f)", with, without)
	}
	// It tightens dispatch, it does not remove it: still below the flat loop.
	flat := measure(t, d, flatCopy(1), 4<<20, mem.ContiguousPattern())
	if with >= flat {
		t.Errorf("wg-attributed ndrange (%.3f) must still trail the flat loop (%.3f)", with, flat)
	}
}

// within reports whether got is within a factor f of want, both positive.
func within(got, want, f float64) bool {
	return got > 0 && want > 0 && got >= want/f && got <= want*f
}
