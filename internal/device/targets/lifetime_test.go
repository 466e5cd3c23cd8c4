package targets

import (
	"runtime"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/kernel"
)

// allocBytes reports the bytes f allocates on the heap, averaged over
// runs calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A target builds its on-chip cache on its first run, not when it is
// constructed: the CPU LLC and GPU L2 arrays alone come to 2.5 MiB, and
// building all four targets, or one by id, must stay far below that.
func TestTargetsAllocateNoCacheUntilRun(t *testing.T) {
	const bound = 256 << 10
	if n := allocBytes(10, func() { All() }); n > bound {
		t.Errorf("All() allocates %d bytes, want at most %d: a cache is built before its first run", n, bound)
	}
	for _, id := range IDs() {
		if n := allocBytes(10, func() { _, _ = ByID(id) }); n > bound {
			t.Errorf("ByID(%q) allocates %d bytes, want at most %d", id, n, bound)
		}
	}
	// The first run pays for the cache.
	dev, _ := ByID("cpu")
	plan, err := dev.Compile(kernel.Kernel{Op: kernel.Copy, VecWidth: 1, Loop: kernel.NDRange})
	if err != nil {
		t.Fatal(err)
	}
	e := device.Exec{ArrayBytes: 4 << 10}
	if n := allocBytes(1, func() { _, _ = plan.Seconds(e) }); n < 1<<20 {
		t.Errorf("the first CPU run allocated %d bytes, too few to have built the LLC", n)
	}
}

// The CPU's exact runs see the LLC the previous repetition left warm:
// a Reset before the cache exists is harmless, the cache built on the
// first repetition persists across NTIMES, and the times are the ones
// the model has always produced for this configuration.
func TestCPUWarmRepetitions(t *testing.T) {
	dev, err := ByID("cpu")
	if err != nil {
		t.Fatal(err)
	}
	dev.Reset()
	dev.Reset()
	cfg := core.DefaultConfig()
	cfg.ArrayBytes = 1 << 20
	cfg.NTimes = 3
	res, err := core.Run(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[kernel.Op][]float64{
		kernel.Copy:  {0.00012581140868255905, 0.00010353600000000002, 0.00010353599999999999},
		kernel.Scale: {0.00010353599999999999, 0.00010353600000000005, 0.00010353599999999999},
		kernel.Add:   {0.00012581140868255902, 0.00010353599999999999, 0.00010353599999999999},
		kernel.Triad: {0.0001035360000000001, 0.00010353599999999999, 0.00010353599999999999},
	}
	if len(res.Kernels) != len(want) {
		t.Fatalf("%d kernels, want %d", len(res.Kernels), len(want))
	}
	for _, k := range res.Kernels {
		w := want[k.Op]
		if len(k.Times) != len(w) {
			t.Fatalf("%v: %d times, want %d", k.Op, len(k.Times), len(w))
		}
		for i := range w {
			if k.Times[i] != w[i] {
				t.Errorf("%v: Times = %v, want %v", k.Op, k.Times, w)
				break
			}
		}
		if !k.Verified {
			t.Errorf("%v: not verified", k.Op)
		}
	}
}
