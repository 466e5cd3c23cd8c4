package gpusim

import (
	"slices"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
)

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

func ndCopy(v int) kernel.Kernel {
	return kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: v, Loop: kernel.NDRange}
}

func TestInfo(t *testing.T) {
	d := New()
	info := d.Info()
	if info.ID != "gpu" || info.Kind != device.GPU {
		t.Errorf("info = %+v", info)
	}
	if info.PeakMemGBps != 336 {
		t.Errorf("peak = %v, want 336 (paper)", info.PeakMemGBps)
	}
	if info.OptimalLoop != kernel.NDRange {
		t.Error("GPU optimal loop management is NDRange")
	}
}

// Figure 1(b), GPU series: copy at 4 MB, vector width sweep.
// Paper: 173.72, 194.30, 201.06, 175.30, 117.37 GB/s.
func TestFig1bVectorSweep(t *testing.T) {
	d := New()
	paper := map[int]float64{1: 173.72, 2: 194.30, 4: 201.06, 8: 175.30, 16: 117.37}
	got := map[int]float64{}
	for _, v := range []int{1, 2, 4, 8, 16} {
		got[v] = measure(t, d, ndCopy(v), 4<<20, mem.ContiguousPattern())
		if !within(got[v], paper[v], 1.25) {
			t.Errorf("vec %d: %.1f GB/s, paper %.1f (factor 1.25 band)", v, got[v], paper[v])
		}
	}
	// The signature droop: wide vectors cut occupancy.
	if !(got[16] < got[8] && got[8] <= got[4]+1) {
		t.Errorf("wide-vector droop missing: %v", got)
	}
	if got[16] > 0.8*got[4] {
		t.Errorf("v16 (%.1f) must fall well below v4 (%.1f)", got[16], got[4])
	}
}

// Figure 1(a)/2, GPU contiguous series across sizes.
// Paper: 0.14, 0.95, 3.71, 14.74, 50.13, 112.79, 173.72, 204.5, 203.87,
// 216.4, 220.1 for 1 KB..1 GB.
func TestContiguousSizeSweep(t *testing.T) {
	d := New()
	paper := []float64{0.14, 0.95, 3.71, 14.74, 50.13, 112.79, 173.72, 204.5, 203.87, 216.4, 220.1}
	var got []float64
	for i := 0; i < 11; i++ {
		bw := measure(t, d, ndCopy(1), int64(1024)<<(2*i), mem.ContiguousPattern())
		got = append(got, bw)
		if !within(bw, paper[i], 1.6) {
			t.Errorf("size index %d: %.2f GB/s, paper %.2f (factor 1.6 band)", i, bw, paper[i])
		}
	}
	if !slices.IsSorted(got) {
		t.Errorf("contiguous sweep must rise to a plateau: %v", got)
	}
	// Plateau within 15% of the paper's 204-220.
	for i := 7; i < 11; i++ {
		if !within(got[i], paper[i], 1.15) {
			t.Errorf("plateau point %d: %.1f vs paper %.1f", i, got[i], paper[i])
		}
	}
}

// Figure 2, GPU strided series: rise, interior plateau in the high 20s,
// then the TLB falloff at 256 MB+.
// Paper: 0.1, 0.6, 2.5, 7.6, 18.2, 26.6, 29.4, 29.5, 27.3, 9.9, 6.7.
func TestStridedSweep(t *testing.T) {
	d := New()
	paper := []float64{0.1, 0.6, 2.5, 7.6, 18.2, 26.6, 29.4, 29.5, 27.3, 9.9, 6.7}
	var got []float64
	for i := 0; i < 11; i++ {
		bw := measure(t, d, ndCopy(1), int64(1024)<<(2*i), mem.ColMajorPattern())
		got = append(got, bw)
		if !within(bw, paper[i], 1.9) {
			t.Errorf("strided size index %d: %.2f GB/s, paper %.2f (factor 1.9 band)", i, bw, paper[i])
		}
	}
	peak := slices.Index(got, slices.Max(got))
	if peak < 4 || peak > 8 {
		t.Errorf("strided peak at index %d, want interior: %v", peak, got)
	}
	// TLB falloff: the 256 MB and 1 GB points drop hard.
	if got[9] > 0.5*got[peak] || got[10] > 0.5*got[peak] {
		t.Errorf("TLB falloff missing: peak %.1f, tail %.1f/%.1f", got[peak], got[9], got[10])
	}
}

func TestStridedFarBelowContiguous(t *testing.T) {
	d := New()
	contig := measure(t, d, ndCopy(1), 64<<20, mem.ContiguousPattern())
	strided := measure(t, d, ndCopy(1), 64<<20, mem.ColMajorPattern())
	if contig < 8*strided {
		t.Errorf("contiguous (%.1f) must dominate strided (%.1f) by ~an order of magnitude",
			contig, strided)
	}
}

// Figure 3: single work-item kernels are a catastrophe on a GPU.
func TestFig3LoopManagement(t *testing.T) {
	d := New()
	bw := map[kernel.LoopMode]float64{}
	for _, lm := range kernel.LoopModes() {
		k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: lm}
		bw[lm] = measure(t, d, k, 4<<20, mem.ContiguousPattern())
	}
	if bw[kernel.NDRange] < 500*bw[kernel.FlatLoop] {
		t.Errorf("ndrange (%.1f) must dominate flat (%.4f) by >500x", bw[kernel.NDRange], bw[kernel.FlatLoop])
	}
	if bw[kernel.FlatLoop] <= bw[kernel.NestedLoop] {
		t.Errorf("flat (%.4f) should edge out nested (%.4f) on a GPU", bw[kernel.FlatLoop], bw[kernel.NestedLoop])
	}
}

// Figure 4(a): all four kernels are memory-bound on the GPU.
func TestAllKernelsMemoryBound(t *testing.T) {
	d := New()
	bws := map[kernel.Op]float64{}
	for _, op := range kernel.Ops() {
		bws[op] = measure(t, d, kernel.Kernel{Op: op, VecWidth: 1}, 16<<20, mem.ContiguousPattern())
	}
	for _, op := range kernel.Ops() {
		if !within(bws[op], bws[kernel.Copy], 1.35) {
			t.Errorf("%v (%.1f) must track copy (%.1f) within 35%%", op, bws[op], bws[kernel.Copy])
		}
	}
}

func TestOccupancy(t *testing.T) {
	d := New()
	w1 := d.Occupancy(ndCopy(1))
	w16 := d.Occupancy(ndCopy(16))
	if w1 != 64 {
		t.Errorf("vec1 occupancy = %d warps, want 64 (register-light)", w1)
	}
	if w16 >= w1/2 {
		t.Errorf("vec16 occupancy = %d, must be less than half of vec1's %d", w16, w1)
	}
	// Doubles double the register pressure.
	kd := kernel.Kernel{Op: kernel.Copy, Type: kernel.Float64, VecWidth: 8, Loop: kernel.NDRange}
	if d.Occupancy(kd) >= d.Occupancy(ndCopy(8)) {
		t.Error("double8 must have lower occupancy than int8")
	}
}

func TestCompileTolerant(t *testing.T) {
	d := New()
	// FPGA attributes are ignored, as real GPU OpenCL ignores unknown
	// vendor annotations.
	k := ndCopy(1)
	k.Attrs.NumComputeUnits = 4
	if _, err := d.Compile(k); err != nil {
		t.Errorf("GPU must ignore AOCL attributes: %v", err)
	}
	if _, err := d.Compile(kernel.Kernel{Op: kernel.Copy, VecWidth: 7, Loop: kernel.NDRange}); err == nil {
		t.Error("invalid kernel accepted")
	}
}

func TestSecondsErrors(t *testing.T) {
	d := New()
	c, err := d.Compile(ndCopy(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seconds(device.Exec{ArrayBytes: 1023, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("non-multiple array bytes accepted")
	}
	if _, err := c.Seconds(device.Exec{ArrayBytes: 4 << 30, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("arrays exceeding the 6 GB device memory accepted")
	}
}

func TestPlanMetadata(t *testing.T) {
	d := New()
	c, err := d.Compile(ndCopy(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Resources(); ok {
		t.Error("GPU must not report FPGA resources")
	}
	if _, ok := c.FmaxMHz(); ok {
		t.Error("GPU must not report fmax")
	}
}

func TestGPUBeatsEverythingContiguous(t *testing.T) {
	// The paper's comparative conclusion: "GPUs remain far ahead of the
	// curve in both peak and sustained memory bandwidth."
	d := New()
	bw := measure(t, d, ndCopy(1), 64<<20, mem.ContiguousPattern())
	if bw < 150 {
		t.Errorf("GPU sustained copy = %.1f GB/s, want > 150", bw)
	}
	if bw > d.Info().PeakMemGBps {
		t.Errorf("sustained %.1f exceeds peak %.1f", bw, d.Info().PeakMemGBps)
	}
}

func TestUnrollHelpsSingleThread(t *testing.T) {
	d := New()
	base := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.FlatLoop}
	plain := measure(t, d, base, 1<<20, mem.ContiguousPattern())
	base.Attrs.Unroll = 16
	unrolled := measure(t, d, base, 1<<20, mem.ContiguousPattern())
	if unrolled <= plain {
		t.Errorf("unroll must expose ILP to the single thread: %.4f vs %.4f", unrolled, plain)
	}
}

func TestLaunchOverheadDominatesSmallArrays(t *testing.T) {
	d := New()
	bw := measure(t, d, ndCopy(1), 1024, mem.ContiguousPattern())
	// Paper: 0.14 GB/s at 1 KB.
	if !within(bw, 0.14, 1.5) {
		t.Errorf("1 KB bandwidth = %.3f GB/s, paper 0.14", bw)
	}
}

// within reports whether got is within a factor f of want, both positive.
func within(got, want, f float64) bool {
	return got > 0 && want > 0 && got >= want/f && got <= want*f
}
