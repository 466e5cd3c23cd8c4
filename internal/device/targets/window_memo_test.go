package targets

import (
	"fmt"
	"math"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/gpusim"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// memoSizes is an ascending series of array sizes, all on the sampled
// side of every board's threshold at repeatWindow. The third is not a
// whole number of coalescing windows, so its streams end in a partial
// one.
var memoSizes = []int64{repeatLarge, 2 * repeatLarge, 3*repeatLarge + 4, 4 * repeatLarge}

// A sampled contiguous walk on a board that sampled the same kernel
// before answers from the remembered windows without simulating, and
// its seconds equal, bit for bit, a fresh board's at every size.
func TestWindowMemoMatchesFreshBoards(t *testing.T) {
	for _, tg := range parityTargets() {
		for _, op := range []kernel.Op{kernel.Copy, kernel.Triad} {
			t.Run(fmt.Sprintf("%s/%v", tg.name, op), func(t *testing.T) {
				dev := tg.new()
				k := kernel.Kernel{Op: op, VecWidth: 1}
				k.Loop = dev.Info().OptimalLoop
				for i, size := range memoSizes {
					e := device.Exec{ArrayBytes: size, Pattern: mem.ContiguousPattern()}
					want := seconds(t, tg.new(), k, e)
					before := dramRequests()
					got := seconds(t, dev, k, e)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%d bytes after %d smaller sizes: %v, a fresh board %v", size, i, got, want)
					}
					if simulated := dramRequests() - before; i > 0 && simulated != 0 {
						t.Errorf("%d bytes after %d smaller sizes simulated %d DRAM requests, want 0", size, i, simulated)
					}
				}
			})
		}
	}
}

// Only contiguous walks are remembered: a strided or column-major walk
// runs its sampled point at every call, a contiguous one only at its
// first size.
func TestWindowMemoOnlyContiguous(t *testing.T) {
	const coalesce = 64
	for _, tg := range parityTargets() {
		t.Run(tg.name, func(t *testing.T) {
			board := tg.new().(sampler)
			runs := 0
			counted := func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
				runs++
				return board.ServiceDRAM(src, window, c)
			}
			k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
			for _, p := range []mem.Pattern{mem.StridedPattern(16), mem.ColMajorPattern(), mem.ContiguousPattern()} {
				for i, size := range []int64{repeatLarge, repeatLarge, 2 * repeatLarge} {
					runs = 0
					est, err := board.Sample(k, device.Exec{ArrayBytes: size, Pattern: p}, coalesce, counted)
					if err != nil {
						t.Fatal(err)
					}
					if !est.Sampled {
						t.Fatalf("%v %d bytes ran exactly", p.Kind, size)
					}
					want := 1
					if p.Kind == mem.Contiguous && i > 0 {
						want = 0
					}
					if runs != want {
						t.Errorf("%v call %d (%d bytes): %d runs, want %d", p.Kind, i, size, runs, want)
					}
				}
			}
		})
	}
}

// wideTriad returns a triad of the widest elements, one transaction
// each, and its Exec: the largest exact run on the CPU at repeatWindow,
// reading more than the LLC holds.
func wideTriad(t *testing.T, c cpusim.Config, loop kernel.LoopMode) (kernel.Kernel, device.Exec) {
	wide := kernel.Kernel{Op: kernel.Triad, Type: kernel.Float64, VecWidth: 16, Loop: loop}
	elems := 2 * repeatWindow / wide.Op.Streams()
	big := device.Exec{ArrayBytes: int64(elems) * int64(wide.ElemBytes()), Pattern: mem.ContiguousPattern()}
	if n := device.TxnCount(wide.Op, elems, wide.ElemBytes(), big.Pattern, wide.ElemBytes()); !sample.Exact(n, repeatWindow) ||
		uint64(wide.Op.InputStreams())*uint64(big.ArrayBytes) <= c.LLC.CapacityBytes {
		t.Fatalf("the wide run (%d txns, %d bytes) must be exact and overflow the LLC", n, big.ArrayBytes)
	}
	return wide, big
}

// A remembered answer skips the long window the board's cache would
// have seen, so the next exact run replays it first: an exact CPU run
// after a remembered sampled one sees the LLC the long window leaves,
// even when an exact run of a larger kernel streamed through the LLC in
// between.
func TestWindowMemoExactAfterHit(t *testing.T) {
	for _, op := range []kernel.Op{kernel.Copy, kernel.Triad} {
		t.Run(op.String(), func(t *testing.T) {
			c := cpusim.DefaultConfig()
			c.SampleWindowTxns = repeatWindow
			dev := cpusim.NewWithConfig(c)
			k := kernel.Kernel{Op: op, VecWidth: 1, Loop: dev.Info().OptimalLoop}
			contig := func(size int64) device.Exec {
				return device.Exec{ArrayBytes: size, Pattern: mem.ContiguousPattern()}
			}
			wide, big := wideTriad(t, c, k.Loop)

			seconds(t, dev, k, contig(repeatLarge)) // samples and remembers
			seconds(t, dev, wide, big)              // evicts what the long window left
			before := dramRequests()
			seconds(t, dev, k, contig(2*repeatLarge)) // answered from the memo
			if n := dramRequests() - before; n != 0 {
				t.Fatalf("the second sampled size simulated %d DRAM requests, want 0", n)
			}
			want := cpuExactAfterSampled[[2]string{op.String(), mem.Contiguous.String()}]
			if got := seconds(t, dev, k, contig(repeatSmall)); math.Float64bits(got) != want {
				t.Errorf("exact seconds after a remembered sampled run = %v, want %v", got, math.Float64frombits(want))
			}
		})
	}
}

// A plan's Memo answering a repeated sampled CPU Exec skips the long
// window too, and owes it the same way: sampled A, an exact wide triad,
// A again on the same plan (a Memo hit), then an exact copy sees the
// LLC A's long window leaves, not the triad's.
func TestPlanMemoHitOwesLongWindow(t *testing.T) {
	c := cpusim.DefaultConfig()
	c.SampleWindowTxns = repeatWindow
	dev := cpusim.NewWithConfig(c)
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1, Loop: dev.Info().OptimalLoop}
	plan, err := dev.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	a := device.Exec{ArrayBytes: repeatLarge, Pattern: mem.ContiguousPattern()}
	first, err := plan.Seconds(a)
	if err != nil {
		t.Fatal(err)
	}
	wide, big := wideTriad(t, c, k.Loop)
	seconds(t, dev, wide, big)
	before := dramRequests()
	if again, err := plan.Seconds(a); err != nil || again != first {
		t.Fatalf("the repeated sampled Exec = %v, %v; want %v", again, err, first)
	}
	if n := dramRequests() - before; n != 0 {
		t.Fatalf("the repeated sampled Exec simulated %d DRAM requests, want 0 (a Memo hit)", n)
	}
	got, err := plan.Seconds(device.Exec{ArrayBytes: repeatSmall, Pattern: mem.ContiguousPattern()})
	if err != nil {
		t.Fatal(err)
	}
	if want := cpuExactAfterSampled[[2]string{"copy", "contiguous"}]; math.Float64bits(got) != want {
		t.Errorf("exact seconds after a Memo hit = %v, want %v", got, math.Float64frombits(want))
	}
}

// BenchmarkSampledSizeSeries times the top of Figure 2's contiguous copy
// series on fresh CPU and GPU boards: 256 MB samples its windows, 1 GB
// answers from them.
func BenchmarkSampledSizeSeries(b *testing.B) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	for i := 0; i < b.N; i++ {
		for _, dev := range []device.Device{cpusim.New(), gpusim.New()} {
			plan, err := dev.Compile(k)
			if err != nil {
				b.Fatal(err)
			}
			for _, size := range []int64{256 << 20, 1 << 30} {
				if _, err := plan.Seconds(device.Exec{ArrayBytes: size, Pattern: mem.ContiguousPattern()}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSampledColMajor times one sampled point the window memo never
// serves: a column-major copy of 16 MB on a fresh CPU board, a shape of
// Figure 2's strided series.
func BenchmarkSampledColMajor(b *testing.B) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	e := device.Exec{ArrayBytes: 16 << 20, Pattern: mem.ColMajorPattern()}
	for i := 0; i < b.N; i++ {
		plan, err := cpusim.New().Compile(k)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Seconds(e); err != nil {
			b.Fatal(err)
		}
	}
}
