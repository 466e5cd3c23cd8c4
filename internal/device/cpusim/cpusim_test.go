package cpusim

import (
	"slices"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
	"mpstream/internal/stats"
)

// measure reports best-of-2 bandwidth (STREAM convention: the second run
// sees warm caches) including launch overhead.
func measure(t *testing.T, d *Device, k kernel.Kernel, arrayBytes int64, p mem.Pattern) float64 {
	t.Helper()
	c, err := d.Compile(k)
	if err != nil {
		t.Fatalf("compile %s: %v", k.Name(), err)
	}
	best := 0.0
	for i := 0; i < 2; i++ {
		sec, err := c.Seconds(device.Exec{ArrayBytes: arrayBytes, Pattern: p})
		if err != nil {
			t.Fatalf("seconds %s: %v", k.Name(), err)
		}
		sec += d.LaunchOverheadSeconds()
		if best == 0 || sec < best {
			best = sec
		}
	}
	return float64(k.Op.BytesMoved(arrayBytes)) / best / 1e9
}

func ndCopy(v int) kernel.Kernel {
	return kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: v, Loop: kernel.NDRange}
}

func TestInfo(t *testing.T) {
	d := New()
	info := d.Info()
	if info.ID != "cpu" || info.Kind != device.CPU {
		t.Errorf("info = %+v", info)
	}
	if info.PeakMemGBps < 33 || info.PeakMemGBps > 35 {
		t.Errorf("peak = %v, want ~34 (paper)", info.PeakMemGBps)
	}
	if info.OptimalLoop != kernel.NDRange {
		t.Error("CPU optimal loop management is NDRange")
	}
}

// Figure 1(a)/2, CPU contiguous series.
// Paper: 0.05, 0.19, 0.72, 2.52, 7.44, 18.16, 27.04, 25.24, 25.10, 26.7, 26.7.
func TestContiguousSizeSweep(t *testing.T) {
	d := New()
	paper := []float64{0.05, 0.19, 0.72, 2.52, 7.44, 18.16, 27.04, 25.24, 25.10, 26.7, 26.7}
	var got []float64
	for i := 0; i < 11; i++ {
		d.Reset()
		bw := measure(t, d, ndCopy(1), int64(1024)<<(2*i), mem.ContiguousPattern())
		got = append(got, bw)
		if !within(bw, paper[i], 1.45) {
			t.Errorf("size index %d: %.2f GB/s, paper %.2f (factor 1.45 band)", i, bw, paper[i])
		}
	}
	// The 4 MB point (index 6) rides the L3: it must exceed the 16 MB one.
	if got[6] <= got[7] {
		t.Errorf("4 MB (%.2f) must beat 16 MB (%.2f): cache residency", got[6], got[7])
	}
	// DRAM plateau well under peak.
	for i := 7; i < 11; i++ {
		if got[i] > 0.85*d.Info().PeakMemGBps {
			t.Errorf("plateau point %d (%.1f) too close to peak", i, got[i])
		}
	}
}

// Figure 1(b), CPU series: vector width barely matters on a CPU.
// Paper: 32.03, 34.58, 37.04, 34.52, 36.03 (within 15% of each other).
func TestFig1bVectorWidthFlat(t *testing.T) {
	d := New()
	var bws []float64
	for _, v := range []int{1, 2, 4, 8, 16} {
		d.Reset()
		bws = append(bws, measure(t, d, ndCopy(v), 4<<20, mem.ContiguousPattern()))
	}
	s, err := stats.Summarize(bws)
	if err != nil {
		t.Fatal(err)
	}
	if s.Max/s.Min > 1.15 {
		t.Errorf("CPU vector sweep must be flat within 15%%: %v", bws)
	}
	// Level: paper's Figure 1(b) shows 32-37; Figure 1(a) shows 27 at the
	// same size. Accept the corridor between them.
	if s.Mean < 20 || s.Mean > 40 {
		t.Errorf("CPU 4 MB copy level = %.1f GB/s, want 20-40", s.Mean)
	}
}

// Figure 2, CPU strided series: interior bump while cache-resident, hard
// fall once the footprint leaves the L3.
// Paper: ~0.04, 0.2, 0.4, 0.8, 3.9, 5.6, 5.3, 0.8, 0.8, 0.7, 0.8.
func TestStridedSweep(t *testing.T) {
	d := New()
	var got []float64
	for i := 0; i < 11; i++ {
		d.Reset()
		got = append(got, measure(t, d, ndCopy(1), int64(1024)<<(2*i), mem.ColMajorPattern()))
	}
	peak := slices.Index(got, slices.Max(got))
	if peak < 4 || peak > 7 {
		t.Errorf("strided peak at index %d, want interior (cache-resident bump): %v", peak, got)
	}
	// The tail must fall well below the peak once past the L3.
	if got[10] > 0.45*got[peak] {
		t.Errorf("strided tail (%.2f) must fall below peak (%.2f)", got[10], got[peak])
	}
	// Tail level: paper 0.7-0.8; allow a factor-2 corridor.
	if !within(got[10], 0.8, 2.0) {
		t.Errorf("1 GB strided = %.2f GB/s, paper 0.8 (factor 2 band)", got[10])
	}
	// Contiguous dominates strided massively at large sizes.
	d.Reset()
	contig := measure(t, d, ndCopy(1), 256<<20, mem.ContiguousPattern())
	if contig < 10*got[9] {
		t.Errorf("contiguous (%.1f) must dominate strided (%.2f) at 256 MB", contig, got[9])
	}
}

// Figure 3: NDRange wins on the CPU; single work-item loops use one core.
func TestFig3LoopManagement(t *testing.T) {
	d := New()
	bw := map[kernel.LoopMode]float64{}
	for _, lm := range kernel.LoopModes() {
		k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: lm}
		d.Reset()
		bw[lm] = measure(t, d, k, 4<<20, mem.ContiguousPattern())
	}
	if bw[kernel.NDRange] < 4*bw[kernel.FlatLoop] {
		t.Errorf("ndrange (%.1f) must dominate single-core flat (%.2f)", bw[kernel.NDRange], bw[kernel.FlatLoop])
	}
	if bw[kernel.FlatLoop] <= bw[kernel.NestedLoop] {
		t.Errorf("flat (%.2f) should edge out nested (%.2f)", bw[kernel.FlatLoop], bw[kernel.NestedLoop])
	}
	if bw[kernel.FlatLoop] < 2 || bw[kernel.FlatLoop] > 5 {
		t.Errorf("single-core flat = %.2f GB/s, want a few GB/s", bw[kernel.FlatLoop])
	}
}

// Figure 4(a): all four kernels memory-bound.
func TestAllKernelsMemoryBound(t *testing.T) {
	d := New()
	bws := map[kernel.Op]float64{}
	for _, op := range kernel.Ops() {
		d.Reset()
		bws[op] = measure(t, d, kernel.Kernel{Op: op, VecWidth: 1}, 16<<20, mem.ContiguousPattern())
	}
	for _, op := range kernel.Ops() {
		if !within(bws[op], bws[kernel.Copy], 1.35) {
			t.Errorf("%v (%.1f) must track copy (%.1f)", op, bws[op], bws[kernel.Copy])
		}
	}
}

func TestWarmCacheBeatsCold(t *testing.T) {
	d := New()
	d.Reset()
	c, err := d.Compile(ndCopy(1))
	if err != nil {
		t.Fatal(err)
	}
	e := device.Exec{ArrayBytes: 2 << 20, Pattern: mem.ContiguousPattern()}
	cold, err := c.Seconds(e)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Seconds(e)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Errorf("warm run (%.3g s) must beat cold run (%.3g s) for a cache-resident array", warm, cold)
	}
}

func TestNonTemporalStoresAvoidRFO(t *testing.T) {
	// With streaming stores, 64 MB copy must beat the 2/3 ceiling that
	// read-for-ownership traffic would impose.
	d := New()
	d.Reset()
	bw := measure(t, d, ndCopy(1), 64<<20, mem.ContiguousPattern())
	rfoCeiling := 2.0 / 3.0 * 0.8 * d.Info().PeakMemGBps
	if bw < rfoCeiling {
		t.Errorf("copy (%.1f GB/s) below the RFO ceiling (%.1f): NT stores not effective", bw, rfoCeiling)
	}
}

func TestDoubleMatchesInt(t *testing.T) {
	d := New()
	d.Reset()
	i32 := measure(t, d, ndCopy(1), 16<<20, mem.ContiguousPattern())
	d.Reset()
	f64 := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Float64, VecWidth: 1, Loop: kernel.NDRange},
		16<<20, mem.ContiguousPattern())
	if !within(f64, i32, 1.1) {
		t.Errorf("double copy (%.1f) must match int copy (%.1f): both memory-bound", f64, i32)
	}
}

func TestCompileTolerant(t *testing.T) {
	d := New()
	k := ndCopy(1)
	k.Attrs.NumComputeUnits = 8
	if _, err := d.Compile(k); err != nil {
		t.Errorf("CPU must ignore AOCL attributes: %v", err)
	}
	if _, err := d.Compile(kernel.Kernel{Op: kernel.Copy, VecWidth: 9, Loop: kernel.NDRange}); err == nil {
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
	if _, err := c.Seconds(device.Exec{ArrayBytes: 48 << 30, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("arrays exceeding memory accepted")
	}
}

func TestPlanMetadata(t *testing.T) {
	d := New()
	c, err := d.Compile(ndCopy(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Resources(); ok {
		t.Error("CPU must not report FPGA resources")
	}
	if _, ok := c.FmaxMHz(); ok {
		t.Error("CPU must not report fmax")
	}
}

func TestSampledLargeRunConsistent(t *testing.T) {
	d := New()
	d.Reset()
	a := measure(t, d, ndCopy(1), 256<<20, mem.ContiguousPattern())
	d.Reset()
	b := measure(t, d, ndCopy(1), 1<<30, mem.ContiguousPattern())
	if !within(a, b, 1.05) {
		t.Errorf("plateau bandwidths diverge: 256MB %.2f vs 1GB %.2f", a, b)
	}
}

// within reports whether got is within a factor f of want, both positive.
func within(got, want, f float64) bool {
	return got > 0 && want > 0 && got >= want/f && got <= want*f
}
