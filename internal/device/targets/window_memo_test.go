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

// longWindowBytes is the array size of a copy whose stream is exactly
// one long window, 2·repeatWindow requests of coalesce bytes each: the
// largest exact copy, in full coalescing rounds.
func longWindowBytes(coalesce uint32) int64 { return repeatWindow * int64(coalesce) }

// A contiguous walk on a board that ran the same kernel before answers
// from the remembered windows without simulating, and its seconds
// equal, bit for bit, a fresh board's at every size. A copy's series
// starts with the exact size that is one long window: on a board with
// a cache it seeds the windows, so the first sampled size simulates
// nothing either. A board without one services its stream straight
// into the DRAM controller, whose reorder window reads to the stream's
// end there, so it remembers nothing and the first sampled size
// simulates. (Three arrays never make a stream of exactly
// 2·repeatWindow requests, so a triad's series has no such size.)
func TestWindowMemoMatchesFreshBoards(t *testing.T) {
	for _, tg := range parityTargets() {
		for _, op := range []kernel.Op{kernel.Copy, kernel.Triad} {
			t.Run(fmt.Sprintf("%s/%v", tg.name, op), func(t *testing.T) {
				dev := tg.new()
				k := kernel.Kernel{Op: op, VecWidth: 1}
				k.Loop = dev.Info().OptimalLoop
				// Sizes from index free on simulate nothing; the one at
				// index replay, if any, must simulate.
				sizes, free, replay := memoSizes, 1, -1
				if op == kernel.Copy {
					sizes = append([]int64{longWindowBytes(tg.copy)}, memoSizes...)
					if tg.llc == nil {
						free, replay = 2, 1
					}
				}
				for i, size := range sizes {
					e := device.Exec{ArrayBytes: size, Pattern: mem.ContiguousPattern()}
					want := seconds(t, tg.new(), k, e)
					before := dramRequests()
					got := seconds(t, dev, k, e)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%d bytes after %d smaller sizes: %v, a fresh board %v", size, i, got, want)
					}
					simulated := dramRequests() - before
					if i >= free && simulated != 0 {
						t.Errorf("%d bytes after %d smaller sizes simulated %d DRAM requests, want 0", size, i, simulated)
					}
					if i == replay && simulated == 0 {
						t.Errorf("%d bytes after the exact long window simulated nothing; its windows were remembered", size)
					}
				}
			})
		}
	}
}

// An exact copy that is one long window runs through the board's
// sampled body, and its answer equals, bit for bit, the body run over
// the whole stream with window 0, as every other exact run is. The next
// size's estimate equals a fresh board's too: on sdaccel it would not,
// were a DRAM-only body's windows remembered after it read to the end
// of the long window's stream.
func TestLongWindowRunIsExact(t *testing.T) {
	for _, tg := range parityTargets() {
		t.Run(tg.name, func(t *testing.T) {
			k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
			e := device.Exec{ArrayBytes: longWindowBytes(tg.copy), Pattern: mem.ContiguousPattern()}
			if n := device.TxnCount(k.Op, e.Elems(k), k.ElemBytes(), e.Pattern, tg.copy); n != 2*repeatWindow {
				t.Fatalf("%d bytes make %d requests, want %d", e.ArrayBytes, n, 2*repeatWindow)
			}
			bodyOf := func(board sampler) device.Body {
				if tg.llc != nil {
					return cacheBody(board)
				}
				return board.ServiceDRAM
			}
			board := tg.new().(sampler)
			body := bodyOf(board)
			var c *cache.Cache
			if tg.llc != nil {
				c = cache.New(*tg.llc)
			}
			var windows []uint64
			counted := func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
				windows = append(windows, window)
				return body(src, window, c)
			}
			got, err := board.Sample(k, e, tg.copy, counted)
			if err != nil {
				t.Fatal(err)
			}
			src, err := device.KernelSource(k.Op, e.Elems(k), k.ElemBytes(), e.Pattern, tg.copy)
			if err != nil {
				t.Fatal(err)
			}
			_, want := body(src, 0, c)
			if got.Sampled || math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) {
				t.Errorf("Sample = %+v, the exact body %v seconds", got, want.Seconds)
			}
			if len(windows) != 1 || windows[0] != repeatWindow {
				t.Errorf("the body ran with windows %v, want one run with %d", windows, repeatWindow)
			}

			next := device.Exec{ArrayBytes: 2 * e.ArrayBytes, Pattern: mem.ContiguousPattern()}
			fresh := tg.new().(sampler)
			wantNext, err := fresh.Sample(k, next, tg.copy, bodyOf(fresh))
			if err != nil {
				t.Fatal(err)
			}
			if gotNext, err := board.Sample(k, next, tg.copy, counted); err != nil || gotNext != wantNext {
				t.Errorf("%d bytes after the long window: %+v, %v; a fresh board %+v", next.ArrayBytes, gotNext, err, wantNext)
			}
		})
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
					board.Reset() // forget the answers; the windows stay
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

// The board answering a repeated sampled CPU Exec skips the long window
// too, and owes it the same way: sampled A, an exact wide triad, A again
// on the same plan (answered by the board), then an exact copy sees the
// LLC A's long window leaves, not the triad's.
func TestBoardAnswerOwesLongWindow(t *testing.T) {
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
		t.Fatalf("the repeated sampled Exec simulated %d DRAM requests, want 0 (the board's answer)", n)
	}
	got, err := plan.Seconds(device.Exec{ArrayBytes: repeatSmall, Pattern: mem.ContiguousPattern()})
	if err != nil {
		t.Fatal(err)
	}
	if want := cpuExactAfterSampled[[2]string{"copy", "contiguous"}]; math.Float64bits(got) != want {
		t.Errorf("exact seconds after an answered repeat = %v, want %v", got, math.Float64frombits(want))
	}
}

// A GPU board starts every run from a cold L2, so an answer from its
// window memo owes nothing: an exact copy after sampled 64 MB and a
// remembered 128 MB simulates exactly the DRAM requests of a fresh
// board's (4096) and takes the same seconds.
func TestColdBoardOwesNothing(t *testing.T) {
	g := gpusim.DefaultConfig()
	g.SampleWindowTxns = repeatWindow
	dev := gpusim.NewWithConfig(g)
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1, Loop: dev.Info().OptimalLoop}
	contig := func(size int64) device.Exec {
		return device.Exec{ArrayBytes: size, Pattern: mem.ContiguousPattern()}
	}
	seconds(t, dev, k, contig(repeatLarge))
	before := dramRequests()
	seconds(t, dev, k, contig(2*repeatLarge))
	if n := dramRequests() - before; n != 0 {
		t.Fatalf("the second sampled size simulated %d DRAM requests, want 0 (a window-memo hit)", n)
	}

	before = dramRequests()
	want := seconds(t, gpusim.NewWithConfig(g), k, contig(repeatSmall))
	fresh := dramRequests() - before
	before = dramRequests()
	got := seconds(t, dev, k, contig(repeatSmall))
	if n := dramRequests() - before; n != fresh {
		t.Errorf("the exact copy after a window-memo hit simulated %d DRAM requests, a fresh board %d", n, fresh)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("exact seconds after a window-memo hit = %v, a fresh board %v", got, want)
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
