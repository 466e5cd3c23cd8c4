package device

import (
	"reflect"
	"testing"

	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/link"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" || FPGA.String() != "fpga" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestExecValidate(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1} // elem 4 bytes
	if err := (Exec{ArrayBytes: 4096, Pattern: mem.ContiguousPattern()}).Validate(k); err != nil {
		t.Errorf("valid exec rejected: %v", err)
	}
	if err := (Exec{ArrayBytes: 0, Pattern: mem.ContiguousPattern()}).Validate(k); err == nil {
		t.Error("zero bytes accepted")
	}
	if err := (Exec{ArrayBytes: 4095, Pattern: mem.ContiguousPattern()}).Validate(k); err == nil {
		t.Error("non-multiple of element size accepted")
	}
	if err := (Exec{ArrayBytes: 4096, Pattern: mem.StridedPattern(0)}).Validate(k); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestExecElems(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 4, Loop: kernel.FlatLoop}
	e := Exec{ArrayBytes: 4096}
	if got := e.Elems(k); got != 256 {
		t.Errorf("Elems = %d, want 256 (4096 / 16B)", got)
	}
}

func TestStreamBases(t *testing.T) {
	bases := StreamBases(3)
	if len(bases) != 3 {
		t.Fatalf("got %d bases", len(bases))
	}
	for i := 1; i < len(bases); i++ {
		if bases[i]-bases[i-1] != 1<<31 {
			t.Errorf("bases not 2 GiB apart: %v", bases)
		}
	}
}

// drain pulls src dry through mem.Fill.
func drain(src mem.Source) []mem.Request {
	var out []mem.Request
	var buf [64]mem.Request
	for {
		n := mem.Fill(src, buf[:])
		out = append(out, buf[:n]...)
		if n < len(buf) {
			return out
		}
	}
}

func TestKernelSourceCopy(t *testing.T) {
	src, err := KernelSource(kernel.Copy, 16, 4, mem.ContiguousPattern(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int
	for _, r := range drain(src) {
		switch r.Op {
		case mem.Read:
			reads++
			if r.Stream != 1 {
				t.Errorf("read from stream %d, want 1", r.Stream)
			}
		case mem.Write:
			writes++
			if r.Stream != 0 {
				t.Errorf("write to stream %d, want 0", r.Stream)
			}
		}
	}
	if reads != 16 || writes != 16 {
		t.Errorf("reads/writes = %d/%d, want 16/16", reads, writes)
	}
}

func TestKernelSourceTriadStreams(t *testing.T) {
	src, err := KernelSource(kernel.Triad, 8, 4, mem.ContiguousPattern(), 4)
	if err != nil {
		t.Fatal(err)
	}
	perStream := map[uint8]int{}
	n := 0
	for _, r := range drain(src) {
		perStream[r.Stream]++
		n++
	}
	if n != 24 {
		t.Fatalf("total requests = %d, want 24 (3 streams x 8)", n)
	}
	for s := uint8(0); s < 3; s++ {
		if perStream[s] != 8 {
			t.Errorf("stream %d count = %d, want 8", s, perStream[s])
		}
	}
}

func TestKernelSourceCoalesces(t *testing.T) {
	src, err := KernelSource(kernel.Copy, 256, 4, mem.ContiguousPattern(), 64)
	if err != nil {
		t.Fatal(err)
	}
	n, bytes := totalBytes(src)
	if n != 32 { // 2 streams x 1 KB / 64 B
		t.Errorf("coalesced txns = %d, want 32", n)
	}
	if bytes != 2048 {
		t.Errorf("bytes = %d, want 2048", bytes)
	}
}

func TestKernelSourceInvalidPattern(t *testing.T) {
	if _, err := KernelSource(kernel.Copy, 16, 4, mem.StridedPattern(-1), 4); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestTxnCount(t *testing.T) {
	cases := []struct {
		name   string
		op     kernel.Op
		elems  int
		elemB  uint32
		p      mem.Pattern
		window uint32
		want   uint64
	}{
		{"contig merge", kernel.Copy, 256, 4, mem.ContiguousPattern(), 64, 32},
		{"no window", kernel.Copy, 256, 4, mem.ContiguousPattern(), 4, 512},
		{"strided", kernel.Copy, 256, 4, mem.StridedPattern(16), 512, 512},
		{"colmajor", kernel.Triad, 1 << 12, 4, mem.ColMajorPattern(), 512, 3 << 12},
		{"stride1 merges", kernel.Copy, 256, 4, mem.StridedPattern(1), 64, 32},
		{"partial tail", kernel.Copy, 17, 4, mem.ContiguousPattern(), 64, 4},
	}
	for _, c := range cases {
		got := TxnCount(c.op, c.elems, c.elemB, c.p, c.window)
		if got != c.want {
			t.Errorf("%s: TxnCount = %d, want %d", c.name, got, c.want)
		}
	}
}

// TxnCount must agree exactly with what KernelSource actually yields.
func TestTxnCountMatchesSource(t *testing.T) {
	patterns := []mem.Pattern{
		mem.ContiguousPattern(),
		mem.StridedPattern(2),
		mem.StridedPattern(7),
		mem.ColMajorPattern(),
	}
	for _, op := range kernel.Ops() {
		for _, p := range patterns {
			for _, window := range []uint32{4, 64, 512} {
				src, err := KernelSource(op, 1024, 4, p, window)
				if err != nil {
					t.Fatal(err)
				}
				n, _ := totalBytes(src)
				want := TxnCount(op, 1024, 4, p, window)
				if uint64(n) != want {
					t.Errorf("op %v pattern %v window %d: source yields %d, TxnCount says %d",
						op, p.Kind, window, n, want)
				}
			}
		}
	}
}

// TxnCount must equal the drained count of every small kernel stream,
// including the strided walks whose last passes hold one element each
// and the one-row column-major shapes, which merge although their
// stride is not one.
func TestTxnCountMatchesSmallKernels(t *testing.T) {
	for elems := 1; elems <= 64; elems++ {
		patterns := []mem.Pattern{
			mem.ContiguousPattern(),
			mem.StridedPattern(2),
			mem.StridedPattern(7),
			mem.StridedPattern(40),
			mem.ColMajorPattern(),
			{Kind: mem.ColMajor2D, Rows: 1, Cols: elems},
		}
		for _, op := range []kernel.Op{kernel.Copy, kernel.Triad} {
			for _, p := range patterns {
				for _, window := range []uint32{2, 4, 8, 64} {
					src, err := KernelSource(op, elems, 4, p, window)
					if err != nil {
						t.Fatal(err)
					}
					if n, want := len(drain(src)), TxnCount(op, elems, 4, p, window); uint64(n) != want {
						t.Errorf("%v over %d elems, pattern %+v, window %d: source yields %d, TxnCount says %d",
							op, elems, p, window, n, want)
					}
				}
			}
		}
	}
}

func TestWattsAt(t *testing.T) {
	info := Info{PeakMemGBps: 100, IdleWatts: 20, PeakWatts: 120}
	if got := info.WattsAt(0); got != 20 {
		t.Errorf("idle watts = %v", got)
	}
	if got := info.WattsAt(50); got != 70 {
		t.Errorf("half-load watts = %v, want 70", got)
	}
	if got := info.WattsAt(100); got != 120 {
		t.Errorf("full-load watts = %v, want 120", got)
	}
	if got := info.WattsAt(500); got != 120 {
		t.Errorf("overload must clamp: %v", got)
	}
	if got := info.WattsAt(-5); got != 20 {
		t.Errorf("negative bandwidth must clamp to idle: %v", got)
	}
	zero := Info{}
	if zero.WattsAt(10) != 0 {
		t.Error("zero-peak info must return idle watts (0)")
	}
}

func TestMBPerJoule(t *testing.T) {
	info := Info{PeakMemGBps: 100, IdleWatts: 20, PeakWatts: 120}
	// 50 GB/s at 70 W = 714 MB/J.
	got := info.MBPerJoule(50)
	if got < 714 || got > 715 {
		t.Errorf("MBPerJoule = %v, want ~714.3", got)
	}
	if (Info{}).MBPerJoule(10) != 0 {
		t.Error("zero watts must yield 0 efficiency")
	}
}

// measuredCache is b.ServiceCache measured by the cache's accesses and
// the DRAM seconds.
func measuredCache(b *Board, src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
	s, l := b.ServiceCache(src, window, c)
	return sample.Measurement{Txns: s.Cache.Accesses, Seconds: s.DRAM.Seconds},
		sample.Measurement{Txns: l.Cache.Accesses, Seconds: l.DRAM.Seconds}
}

// testBoard is a small cached board sampling with a 256-transaction
// window, so a 1 MiB copy is sampled and a 4 KiB one runs exactly. Its
// exact runs see the cache warm, like the CPU's.
func testBoard() *Board { return cachedBoard(true) }

// cachedBoard is testBoard with its exact runs warm or cold.
func cachedBoard(warm bool) *Board {
	dramCfg := dram.Config{Name: "test", Channels: 2, BanksPerChannel: 8, RowBytes: 8192,
		BurstBytes: 64, BusGBps: 12.8, RowMissNs: 45, TurnaroundNs: 7.5, InterleaveBytes: 1024}
	llc := &cache.Config{Name: "test-llc", CapacityBytes: 64 << 10, LineBytes: 64, Ways: 8}
	b := NewBoard(Info{ID: "test"}, 1<<30, dramCfg, link.Config{Name: "test-link", GBps: 1}, 0, 256, llc, warm)
	return &b
}

// A board builds its cache on the first Sample and keeps it: before
// then a Reset is harmless and nothing is allocated, afterwards every
// run, exact or sampled, sees the same cache and no other. A board
// without a cache passes run nil. The body streams through the cache:
// a cache no run touched would stay empty, trivially self-flushed, and
// the board would answer the repeated exact call instead of running it.
func TestCacheBuiltOnFirstSample(t *testing.T) {
	b := testBoard()
	if b.cache != nil {
		t.Fatal("a new board holds a cache before its first Sample")
	}
	b.Reset()
	if b.cache != nil {
		t.Fatal("Reset built the cache")
	}
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	exact := Exec{ArrayBytes: 4 << 10, Pattern: mem.ContiguousPattern()}
	sampled := Exec{ArrayBytes: 1 << 20, Pattern: mem.ContiguousPattern()}
	var seen []*cache.Cache
	run := func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
		if seen == nil && c != nil && !reflect.DeepEqual(c, cache.New(*b.llc)) {
			t.Error("the first run's cache is not a cold cache of the board's configuration")
		}
		seen = append(seen, c)
		if c == nil {
			return b.ServiceDRAM(src, window, c)
		}
		return measuredCache(b, src, window, c)
	}
	for _, e := range []Exec{exact, exact, sampled} {
		if _, err := b.Sample(k, e, 64, run); err != nil {
			t.Fatal(err)
		}
	}
	if b.cache == nil || len(seen) != 3 || seen[0] != b.cache || seen[1] != b.cache || seen[2] != b.cache {
		t.Errorf("runs saw caches %v, want the board's %p three times", seen, b.cache)
	}

	bare := NewBoard(Info{ID: "bare"}, 1<<30, b.mem.Config(), link.Config{Name: "l", GBps: 1}, 0, 256, nil, false)
	bare.Reset()
	seen = nil
	for _, e := range []Exec{exact, sampled} {
		if _, err := bare.Sample(k, e, 64, run); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range seen {
		if c != nil {
			t.Errorf("a board without a cache passed run %p", c)
		}
	}
	if len(seen) != 2 || bare.cache != nil {
		t.Errorf("cacheless board: %d runs, cache %p; want 2 runs and no cache", len(seen), bare.cache)
	}
}

// Board.Sample makes one run per Exec on the board's cache: the whole
// stream for an exact Exec, the board's window for a sampled one.
func TestSampleCaches(t *testing.T) {
	b := testBoard()
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	type call struct {
		window uint64
		c      *cache.Cache
	}
	var calls []call
	run := func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
		calls = append(calls, call{window, c})
		return b.ServiceDRAM(src, window, c)
	}
	for i, e := range []Exec{
		{ArrayBytes: 4 << 10, Pattern: mem.ContiguousPattern()},
		{ArrayBytes: 1 << 20, Pattern: mem.ContiguousPattern()},
		{ArrayBytes: 1 << 20, Pattern: mem.ColMajorPattern()},
	} {
		calls = nil
		est, err := b.Sample(k, e, 64, run)
		if err != nil {
			t.Fatal(err)
		}
		want := call{0, b.cache}
		if est.Sampled {
			want.window = b.window
		}
		if len(calls) != 1 || calls[0] != want {
			t.Errorf("Exec %d (sampled %v): runs %+v, want one run %+v", i, est.Sampled, calls, want)
		}
	}
}

// Sample answers a repeat of a kernel's last call since Reset without
// running the body, except an exact run on a warm board, which reads the
// cache and simulates every time. The board hands each run a cache in
// the state it needs: cold for a sampled run and for any run on a cold
// board, as the previous run left it for an exact run on a warm board.
func TestSampleAnswersRepeats(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	exact := Exec{ArrayBytes: 4 << 10, Pattern: mem.ContiguousPattern()}
	sampled := Exec{ArrayBytes: 1 << 20, Pattern: mem.ColMajorPattern()}
	for _, warm := range []bool{false, true} {
		b := cachedBoard(warm)
		runs, warmRuns := 0, 0
		body := func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
			runs++
			if c.Stats() != (cache.Stats{}) {
				warmRuns++
			}
			return measuredCache(b, src, window, c)
		}
		// runs[warm] counts the runs so far; warmRuns those that saw a
		// warm cache, which only a warm board's exact runs do.
		steps := []struct {
			e        Exec
			window   uint32
			runs     map[bool]int
			warmRuns int
		}{
			{exact, 64, map[bool]int{false: 1, true: 1}, 0},
			{exact, 64, map[bool]int{false: 1, true: 2}, 1},
			{exact, 128, map[bool]int{false: 2, true: 3}, 2}, // another coalescing window
			{sampled, 64, map[bool]int{false: 3, true: 4}, 2},
			{sampled, 64, map[bool]int{false: 3, true: 4}, 2}, // answered; a warm board owes its long window
			{exact, 64, map[bool]int{false: 4, true: 6}, 3},   // the last answer was the sampled one; the debt is paid first
			{exact, 64, map[bool]int{false: 4, true: 7}, 4},
		}
		var ests []sample.Estimate
		for i, s := range steps {
			est, err := b.Sample(k, s.e, s.window, body)
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, est)
			if runs != s.runs[warm] {
				t.Errorf("warm %v, step %d: %d runs, want %d", warm, i, runs, s.runs[warm])
			}
			if want := map[bool]int{true: s.warmRuns}[warm]; warmRuns != want {
				t.Errorf("warm %v, step %d: %d runs saw a warm cache, want %d", warm, i, warmRuns, want)
			}
		}
		if ests[3] != ests[4] {
			t.Errorf("warm %v: a repeated sampled call answered %+v, then %+v", warm, ests[3], ests[4])
		}
		b.Reset()
		before := runs
		if _, err := b.Sample(k, sampled, 64, body); err != nil || runs != before+1 {
			t.Errorf("warm %v: after Reset a repeat made %d runs (%v), want 1", warm, runs-before, err)
		}
	}
}

// A panic in a sampled run, in its body or at the checkpoint inside the
// DRAM model, reaches the Sample caller, and the board samples normally
// afterwards. A panicked run remembers no windows: the next Sample
// simulates.
func TestSamplePanicReachesCaller(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	e := Exec{ArrayBytes: 1 << 20, Pattern: mem.ContiguousPattern()}
	ref := testBoard()
	want, err := ref.Sample(k, e, 64, ref.ServiceDRAM)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"body", "checkpoint"} {
		// A fresh board per case: a remembered window would answer
		// without calling run at all.
		b := testBoard()
		r := func() (r any) {
			defer func() { r = recover() }()
			_, _ = b.Sample(k, e, 64, func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
				if site == "body" {
					panic(site + " failed")
				}
				cp := dram.Checkpoint{At: window, Fork: func() { panic(site + " failed") }}
				b.mem.ServiceCheckpoint(src, 2*window, &cp)
				return
			})
			return nil
		}()
		if r != site+" failed" {
			t.Errorf("panic in the %s: caller recovered %v", site, r)
		}
		runs := 0
		got, err := b.Sample(k, e, 64, func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
			runs++
			return b.ServiceDRAM(src, window, c)
		})
		if err != nil || got != want {
			t.Errorf("after the panic in the %s: Sample = %+v, %v; want %+v", site, got, err, want)
		}
		if runs != 1 {
			t.Errorf("after the panic in the %s: Sample made %d runs, want 1 (a panicked run remembers nothing)", site, runs)
		}
	}
}

// Sample remembers a contiguous walk's windows only when they read no
// stream to its last request: just past the sampling threshold the
// DRAM controller's reorder window reads to the end of the walk, so
// those windows neither serve a larger size nor are served by one.
func TestSampleMemoNeedsUnreadTail(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	edge := Exec{ArrayBytes: 257 * 64, Pattern: mem.ContiguousPattern()} // 514 txns
	large := Exec{ArrayBytes: 1 << 20, Pattern: mem.ContiguousPattern()}
	fresh := func(e Exec) sample.Estimate {
		b := testBoard()
		est, err := b.Sample(k, e, 64, b.ServiceDRAM)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	for _, order := range [][]Exec{{edge, large}, {large, edge}} {
		b := testBoard()
		runs := 0
		run := func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
			runs++
			return b.ServiceDRAM(src, window, c)
		}
		for _, e := range order {
			runs = 0
			got, err := b.Sample(k, e, 64, run)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Sampled || runs != 1 {
				t.Errorf("%d bytes after %d: sampled %v with %d runs, want 1", e.ArrayBytes, order[0].ArrayBytes, got.Sampled, runs)
			}
			if want := fresh(e); got != want {
				t.Errorf("%d bytes after %d: %+v, a fresh board %+v", e.ArrayBytes, order[0].ArrayBytes, got, want)
			}
		}
	}
}

// totalBytes drains a source, returning the transaction count and byte sum.
func totalBytes(s mem.Source) (n int, bytes uint64) {
	var buf [256]mem.Request
	for {
		k := s.NextBatch(buf[:])
		for _, r := range buf[:k] {
			bytes += uint64(r.Size)
		}
		n += k
		if k < len(buf) {
			return n, bytes
		}
	}
}

// An exact run that is one long window, 2·window requests in full
// coalescing rounds, seeds the window memo when the body reads no
// further than its window: the next sampled size simulates nothing and
// equals a fresh board's. One whose last round is partial, or whose
// body read to the stream's end (the DRAM controller's reorder window
// does), remembers nothing.
func TestLongWindowSeedsMemo(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	full := Exec{ArrayBytes: 256 * 64, Pattern: mem.ContiguousPattern()}      // 512 txns
	partial := Exec{ArrayBytes: 255*64 + 4, Pattern: mem.ContiguousPattern()} // 512 txns, the last round 4 bytes
	large := Exec{ArrayBytes: 1 << 20, Pattern: mem.ContiguousPattern()}      // sampled
	viaCache := func(b *Board) Body {
		return func(src mem.Source, window uint64, c *cache.Cache) (short, long sample.Measurement) {
			return measuredCache(b, src, window, c)
		}
	}
	viaDRAM := func(b *Board) Body { return b.ServiceDRAM }
	for _, c := range []struct {
		name   string
		exact  Exec
		body   func(*Board) Body
		seeded bool
	}{
		{"full rounds", full, viaCache, true},
		{"partial last round", partial, viaCache, false},
		{"read ahead to the end", full, viaDRAM, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := TxnCount(k.Op, c.exact.Elems(k), k.ElemBytes(), c.exact.Pattern, 64); n != 512 {
				t.Fatalf("%d txns, want 512", n)
			}
			ref := testBoard()
			want, err := ref.Sample(k, large, 64, c.body(ref))
			if err != nil {
				t.Fatal(err)
			}
			b := testBoard()
			runs := 0
			body := c.body(b)
			counted := func(src mem.Source, window uint64, cc *cache.Cache) (short, long sample.Measurement) {
				runs++
				return body(src, window, cc)
			}
			if est, err := b.Sample(k, c.exact, 64, counted); err != nil || est.Sampled {
				t.Fatalf("the long-window Exec: %+v, %v; want an exact answer", est, err)
			}
			runs = 0
			got, err := b.Sample(k, large, 64, counted)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%d bytes after the long window: %+v, a fresh board %+v", large.ArrayBytes, got, want)
			}
			if seeded := runs == 0; seeded != c.seeded {
				t.Errorf("the sampled size made %d runs: seeded %v, want %v", runs, seeded, c.seeded)
			}
		})
	}
}

// flushBoard is a warm board with a 64 KiB LLC of 128 sets whose exact
// runs reach 64Ki-transaction streams.
func flushBoard(nonTemporal bool) *Board {
	llc := &cache.Config{Name: "flush-llc", CapacityBytes: 64 << 10, LineBytes: 64, Ways: 8, NonTemporalWrites: nonTemporal}
	b := NewBoard(Info{ID: "flush"}, 1<<30, testBoard().mem.Config(), link.Config{Name: "l", GBps: 1}, 0, 1<<16, llc, true)
	return &b
}

// tailSource yields src's stream, then tail.
type tailSource struct {
	src  mem.Source
	tail []mem.Request
}

func (s *tailSource) NextBatch(dst []mem.Request) int {
	n := s.src.NextBatch(dst)
	k := copy(dst[n:], s.tail)
	s.tail = s.tail[k:]
	return n + k
}

// A warm board answers the identical call after an exact contiguous run
// that started cold and left its cache self-flushed, and only then:
// each case below breaks one condition, and the repeat simulates.
func TestSelfFlushedRunAnswersRepeat(t *testing.T) {
	k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
	contig := func(n int64) Exec { return Exec{ArrayBytes: n, Pattern: mem.ContiguousPattern()} }
	big := contig(256 << 10) // 32 lines of b per set
	b0, bLast := StreamBases(2)[1], StreamBases(2)[1]+(256<<10)-64
	for _, c := range []struct {
		name        string
		nonTemporal bool
		e           Exec
		tail        []mem.Request // requests the body adds after the walk
		answered    bool
	}{
		{"self-flushing copy", true, big, nil, true},
		{"not contiguous", true, Exec{ArrayBytes: 256 << 10, Pattern: mem.StridedPattern(16)}, nil, false},
		{"a set with no eviction", true, contig(16 << 10), nil, false},
		{"writebacks and dirty lines", false, big, nil, false},
		{"LLC hits", true, big, []mem.Request{{Addr: bLast - 64, Size: 64, Op: mem.Read, Stream: 5}, {Addr: bLast, Size: 64, Op: mem.Read, Stream: 5}}, false},
		{"writebacks, no dirty line left", false, big, []mem.Request{{Addr: 3 << 31, Size: 256 << 10, Op: mem.Read, Stream: 7}}, false},
		{"an invalidate that drops a line", true, big, []mem.Request{{Addr: bLast, Size: 64, Op: mem.Write, Stream: 6}}, false},
		{"a read stream ending on its first line", true, big, []mem.Request{{Addr: b0, Size: 64, Op: mem.Read, Stream: 1}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := flushBoard(c.nonTemporal)
			runs := 0
			body := func(src mem.Source, window uint64, cc *cache.Cache) (short, long sample.Measurement) {
				runs++
				tail := append([]mem.Request(nil), c.tail...)
				return measuredCache(b, &tailSource{src: src, tail: tail}, window, cc)
			}
			first, err := b.Sample(k, c.e, 64, body)
			if err != nil || first.Sampled {
				t.Fatalf("first call: %+v, %v; want an exact answer", first, err)
			}
			again, err := b.Sample(k, c.e, 64, body)
			if err != nil {
				t.Fatal(err)
			}
			if answered := runs == 1; answered != c.answered {
				t.Fatalf("%d runs for two calls: answered %v, want %v", runs, answered, c.answered)
			}
			if c.answered && again != first {
				t.Errorf("the repeat answered %+v, the first run %+v", again, first)
			}
		})
	}

	// The answer serves only the very next identical calls: another
	// call or a Reset between them clears it.
	b := flushBoard(true)
	runs := 0
	body := func(src mem.Source, window uint64, cc *cache.Cache) (short, long sample.Measurement) {
		runs++
		return measuredCache(b, src, window, cc)
	}
	for i, step := range []struct {
		e     Exec
		reset bool
		runs  int
	}{
		{big, false, 1}, {big, false, 1}, {big, false, 1}, // answered twice
		{contig(16 << 10), false, 2}, {big, false, 3}, // another call in between
		{big, true, 4}, // a Reset in between: cold again, so the run self-flushes anew
		{big, false, 4},
	} {
		if step.reset {
			b.Reset()
		}
		if _, err := b.Sample(k, step.e, 64, body); err != nil {
			t.Fatal(err)
		}
		if runs != step.runs {
			t.Errorf("step %d: %d runs, want %d", i, runs, step.runs)
		}
	}
}
