package sdaccel

import (
	"errors"
	"slices"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/fabric"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
	"mpstream/internal/stats"
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

func nestedCopy(v int) kernel.Kernel {
	return kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: v, Loop: kernel.NestedLoop}
}

func TestInfo(t *testing.T) {
	d := New()
	info := d.Info()
	if info.ID != "sdaccel" || info.Kind != device.FPGA {
		t.Errorf("info = %+v", info)
	}
	if info.PeakMemGBps < 10 || info.PeakMemGBps > 11 {
		t.Errorf("peak = %v, want ~10.7 (paper: 10 GB/s)", info.PeakMemGBps)
	}
	if info.OptimalLoop != kernel.NestedLoop {
		t.Error("SDAccel optimal loop management is the nested loop")
	}
	if d.Link() == nil {
		t.Error("missing PCIe link")
	}
}

// Figure 1(b), SDAccel series: copy at 4 MB, vector width sweep (nested).
// Paper: 0.74, 1.41, 2.47, 4.14, 6.27 GB/s.
func TestFig1bVectorSweep(t *testing.T) {
	d := New()
	paper := map[int]float64{1: 0.74, 2: 1.41, 4: 2.47, 8: 4.14, 16: 6.27}
	got := map[int]float64{}
	for _, v := range []int{1, 2, 4, 8, 16} {
		got[v] = measure(t, d, nestedCopy(v), 4<<20, mem.ContiguousPattern())
		if !within(got[v], paper[v], 1.25) {
			t.Errorf("vec %d: %.3f GB/s, paper %.2f (factor 1.25 band)", v, got[v], paper[v])
		}
	}
	// SDAccel keeps scaling through v16 (DRAM not yet saturated).
	if !(got[1] < got[2] && got[2] < got[4] && got[4] < got[8] && got[8] < got[16]) {
		t.Errorf("vector scaling must be monotone: %v", got)
	}
}

// Figure 1(a), SDAccel series: copy, vec 1, nested loop, sizes 1 KB..64 MB.
// Paper: 0.03, 0.09, 0.21, 0.35, 0.53, 0.64, 0.70, 0.74, 0.76.
func TestFig1aSizeSweep(t *testing.T) {
	d := New()
	paper := []float64{0.03, 0.09, 0.21, 0.35, 0.53, 0.64, 0.70, 0.74, 0.76}
	var got []float64
	for i := 0; i < 9; i++ {
		bw := measure(t, d, nestedCopy(1), int64(1024)<<(2*i), mem.ContiguousPattern())
		got = append(got, bw)
		if !within(bw, paper[i], 1.6) {
			t.Errorf("size index %d: %.4f GB/s, paper %.2f (factor 1.6 band)", i, bw, paper[i])
		}
	}
	if !slices.IsSorted(got) {
		t.Errorf("size sweep must rise to a plateau: %v", got)
	}
}

// Figure 3, SDAccel bars: the paper's headline surprise — nested loops
// synthesize burst logic, flat loops do not, NDRange sits between.
func TestFig3LoopManagement(t *testing.T) {
	d := New()
	bw := map[kernel.LoopMode]float64{}
	for _, lm := range kernel.LoopModes() {
		k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: lm}
		bw[lm] = measure(t, d, k, 4<<20, mem.ContiguousPattern())
	}
	if !(bw[kernel.NestedLoop] > 3*bw[kernel.NDRange]) {
		t.Errorf("nested (%.3f) must dominate ndrange (%.3f)", bw[kernel.NestedLoop], bw[kernel.NDRange])
	}
	if !(bw[kernel.NDRange] > 3*bw[kernel.FlatLoop]) {
		t.Errorf("ndrange (%.3f) must dominate unpipelined flat (%.3f)", bw[kernel.NDRange], bw[kernel.FlatLoop])
	}
	// The nested/flat gap is orders of magnitude — "the memory-access
	// logic is synthesized differently, even if the eventual underlying
	// access pattern is exactly the same".
	if bw[kernel.NestedLoop] < 20*bw[kernel.FlatLoop] {
		t.Errorf("nested (%.3f) vs flat (%.4f) gap too small", bw[kernel.NestedLoop], bw[kernel.FlatLoop])
	}
}

func TestPipelineLoopAttrHelpsFlat(t *testing.T) {
	d := New()
	plain := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.FlatLoop},
		4<<20, mem.ContiguousPattern())
	piped := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.FlatLoop,
		Attrs: kernel.Attrs{PipelineLoop: true}}, 4<<20, mem.ContiguousPattern())
	if piped < 5*plain {
		t.Errorf("xcl_pipeline_loop (%.3f) must clearly beat unpipelined flat (%.4f)", piped, plain)
	}
	nested := measure(t, d, nestedCopy(1), 4<<20, mem.ContiguousPattern())
	if piped > nested {
		t.Errorf("pipelined flat (%.3f) must still trail nested burst inference (%.3f)", piped, nested)
	}
}

func TestPipelineWorkItemsAttrHelpsNDRange(t *testing.T) {
	// At vec 16 the work-item pipeline (not DRAM waste) is the binding
	// constraint, so halving the initiation interval is visible. At vec 1
	// the uncoalesced DRAM traffic binds and the attribute cannot help —
	// also asserted, because that insensitivity is itself paper-faithful
	// ("at times in unexpected ways").
	d := New()
	wide := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 16, Loop: kernel.NDRange}
	plain := measure(t, d, wide, 4<<20, mem.ContiguousPattern())
	wide.Attrs.PipelineWorkItems = true
	piped := measure(t, d, wide, 4<<20, mem.ContiguousPattern())
	if piped <= 1.2*plain {
		t.Errorf("xcl_pipeline_workitems at vec16 (%.3f) must clearly beat plain (%.3f)", piped, plain)
	}

	narrow := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange}
	p1 := measure(t, d, narrow, 4<<20, mem.ContiguousPattern())
	narrow.Attrs.PipelineWorkItems = true
	p2 := measure(t, d, narrow, 4<<20, mem.ContiguousPattern())
	if !within(p2, p1, 1.05) {
		t.Errorf("at vec1 the attribute must be DRAM-masked: %.3f vs %.3f", p2, p1)
	}
}

// Figure 2, SDAccel strided series: near-constant ~0.01 GB/s at every
// size — burst inference fails on non-unit strides and every access pays
// the AXI round trip.
func TestFig2StridedFlatLine(t *testing.T) {
	d := New()
	var got []float64
	for i := 2; i < 9; i += 2 {
		got = append(got, measure(t, d, nestedCopy(1), int64(1024)<<(2*i), mem.ColMajorPattern()))
	}
	s, err := stats.Summarize(got)
	if err != nil {
		t.Fatal(err)
	}
	if s.Max/s.Min > 1.25 {
		t.Errorf("strided series must be nearly flat: %v", got)
	}
	if s.Mean < 0.005 || s.Mean > 0.03 {
		t.Errorf("strided level = %.4f GB/s, paper ~0.01", s.Mean)
	}
}

func TestMaxMemoryPortsHelpsWidePipelines(t *testing.T) {
	// With a narrowed port (64-bit attribute) the shared AXI master is
	// the binding constraint for a wide triad; per-argument ports lift it.
	d := New()
	base := kernel.Kernel{Op: kernel.Triad, Type: kernel.Int32, VecWidth: 16, Loop: kernel.NestedLoop,
		Attrs: kernel.Attrs{MemoryPortWidthBits: 64}}
	shared := measure(t, d, base, 4<<20, mem.ContiguousPattern())
	base.Attrs.MaxMemoryPorts = true
	perArg := measure(t, d, base, 4<<20, mem.ContiguousPattern())
	if perArg <= 1.5*shared {
		t.Errorf("max_memory_ports (%.3f) must clearly beat the shared narrow port (%.3f)", perArg, shared)
	}
}

func TestMemoryPortWidthThrottles(t *testing.T) {
	d := New()
	base := nestedCopy(16)
	wide := measure(t, d, base, 4<<20, mem.ContiguousPattern())
	base.Attrs.MemoryPortWidthBits = 64 // 8-byte port
	narrow := measure(t, d, base, 4<<20, mem.ContiguousPattern())
	if narrow >= wide {
		t.Errorf("a 64-bit port (%.3f) must throttle vec16 (%.3f)", narrow, wide)
	}
}

func TestCompileRejects(t *testing.T) {
	d := New()
	if _, err := d.Compile(kernel.Kernel{Op: kernel.Copy, VecWidth: 5, Loop: kernel.FlatLoop}); err == nil {
		t.Error("invalid kernel accepted")
	}
	// AOCL-only attributes are not silently ignored.
	if _, err := d.Compile(kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1,
		Loop: kernel.NDRange, Attrs: kernel.Attrs{NumComputeUnits: 4}}); err == nil {
		t.Error("num_compute_units accepted on sdaccel")
	}
	// Oversized designs are rejected.
	huge := kernel.Kernel{Op: kernel.Triad, Type: kernel.Float64, VecWidth: 16,
		Loop: kernel.FlatLoop, Attrs: kernel.Attrs{Unroll: 64}}
	if _, err := d.Compile(huge); !errors.Is(err, fabric.ErrDoesNotFit) {
		t.Errorf("oversized design error = %v, want ErrDoesNotFit", err)
	}
}

func TestSecondsErrors(t *testing.T) {
	d := New()
	c, err := d.Compile(nestedCopy(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seconds(device.Exec{ArrayBytes: 1023, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("non-multiple array bytes accepted")
	}
	if _, err := c.Seconds(device.Exec{ArrayBytes: 12 << 30, Pattern: mem.ContiguousPattern()}); err == nil {
		t.Error("arrays exceeding device memory accepted")
	}
}

func TestPlanMetadata(t *testing.T) {
	d := New()
	c, err := d.Compile(nestedCopy(4))
	if err != nil {
		t.Fatal(err)
	}
	if mhz, ok := c.FmaxMHz(); !ok || mhz <= 0 || mhz > 95 {
		t.Errorf("fmax = %v ok=%v", mhz, ok)
	}
	if res, ok := c.Resources(); !ok || res.Logic <= 0 {
		t.Errorf("resources = %+v ok=%v", res, ok)
	}
}

func TestSlowerThanAOCLShape(t *testing.T) {
	// Cross-target sanity pinned here to the sdaccel side: its best
	// no-vectorization number stays under 1 GB/s while its peak is 10 —
	// the paper's "severely under-utilizing" observation.
	d := New()
	best := measure(t, d, nestedCopy(1), 4<<20, mem.ContiguousPattern())
	if best > 1.0 {
		t.Errorf("v1 nested = %.3f GB/s, should be < 1 (paper: 0.70)", best)
	}
	if best < 0.4 {
		t.Errorf("v1 nested = %.3f GB/s, too slow (paper: 0.70)", best)
	}
}

// within reports whether got is within a factor f of want, both positive.
func within(got, want, f float64) bool {
	return got > 0 && want > 0 && got >= want/f && got <= want*f
}
