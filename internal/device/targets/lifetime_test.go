package targets

import (
	"fmt"
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

// A contiguous copy too large for the LLC flushes it itself: its first
// repetition evicts every line a second could hit, so the board answers
// the second and third without simulating. A copy that fits reads the
// lines its first repetition left and simulates every repetition. The
// times are the ones the model has always produced, repetition by
// repetition (the queue's clock rounds the identical seconds of the
// 16 MB copy differently the third time).
func TestCPUSelfFlushingRepetitions(t *testing.T) {
	cases := []struct {
		bytes    int64
		answered bool // the repetitions after the first simulate nothing
		times    []float64
	}{
		{4 << 20, false, []float64{0.0003891150647818328, 0.000300144, 0.0003001440000000001}},
		{16 << 20, true, []float64{0.0014423296891768575, 0.0014423296891768575, 0.001442329689176858}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprint(c.bytes), func(t *testing.T) {
			dev, err := ByID("cpu")
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Ops = []kernel.Op{kernel.Copy}
			cfg.ArrayBytes = c.bytes
			cfg.NTimes = 1
			before := dramRequests()
			if _, err := core.Run(dev, cfg); err != nil {
				t.Fatal(err)
			}
			once := dramRequests() - before
			cfg.NTimes = 3
			before = dramRequests()
			res, err := core.Run(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := dramRequests() - before; c.answered != (n == once) {
				t.Errorf("3 repetitions simulated %d DRAM requests, the first alone %d: answered %v, want %v", n, once, n == once, c.answered)
			}
			got := res.Kernel(kernel.Copy).Times
			if len(got) != len(c.times) {
				t.Fatalf("Times = %v, want %v", got, c.times)
			}
			for i := range got {
				if got[i] != c.times[i] {
					t.Errorf("Times = %v, want %v", got, c.times)
					break
				}
			}
		})
	}
}
