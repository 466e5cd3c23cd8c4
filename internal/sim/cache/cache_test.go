package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"mpstream/internal/sim/mem"
)

// tiny cache: 4 sets x 2 ways x 64B lines = 512 B.
func tinyConfig() Config {
	return Config{Name: "tiny", CapacityBytes: 512, LineBytes: 64, Ways: 2}
}

// llcConfig is a 1 MB 16-way model for streaming tests.
func llcConfig() Config {
	return Config{Name: "llc", CapacityBytes: 1 << 20, LineBytes: 64, Ways: 16}
}

func access(c *Cache, addr uint64, size uint32, op mem.Op, stream uint8) []mem.Request {
	return c.Access(mem.Request{Addr: addr, Size: size, Op: op, Stream: stream}, nil)
}

func TestValidate(t *testing.T) {
	if err := tinyConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "line0", CapacityBytes: 512, LineBytes: 0, Ways: 2},
		{Name: "line48", CapacityBytes: 512, LineBytes: 48, Ways: 2},
		{Name: "ways0", CapacityBytes: 512, LineBytes: 64, Ways: 0},
		{Name: "cap0", CapacityBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "capodd", CapacityBytes: 500, LineBytes: 64, Ways: 2},
		{Name: "sets3", CapacityBytes: 3 * 128, LineBytes: 64, Ways: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %q accepted", c.Name)
		}
	}
}

func TestSets(t *testing.T) {
	if got := tinyConfig().Sets(); got != 4 {
		t.Errorf("Sets = %d, want 4", got)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config must panic")
		}
	}()
	New(Config{})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(tinyConfig())
	outs := access(c, 0, 4, mem.Read, 0)
	if len(outs) != 1 || outs[0].Op != mem.Read || outs[0].Size != 64 || outs[0].Addr != 0 {
		t.Fatalf("cold miss traffic = %+v, want one 64B line read", outs)
	}
	// Different line, then back: the probe path must hit.
	access(c, 128, 4, mem.Read, 0)
	outs = access(c, 8, 4, mem.Read, 0)
	if len(outs) != 0 {
		t.Fatalf("warm hit produced traffic: %+v", outs)
	}
	st := c.Stats()
	if st.Fills != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 fills 1 hit", st)
	}
}

func TestSameLineShortcut(t *testing.T) {
	c := New(tinyConfig())
	access(c, 0, 4, mem.Read, 0)
	for i := uint64(1); i < 16; i++ {
		outs := access(c, i*4, 4, mem.Read, 0)
		if len(outs) != 0 {
			t.Fatalf("same-line access %d produced traffic", i)
		}
	}
	st := c.Stats()
	if st.L1Transfers != 1 {
		t.Errorf("L1 transfers = %d, want 1 (one line moved for 16 word reads)", st.L1Transfers)
	}
	if st.Hits != 15 {
		t.Errorf("hits = %d, want 15", st.Hits)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tinyConfig()) // 4 sets, 2 ways
	// Three lines in the same set (set stride = 4 lines = 256 B).
	a, b, d := uint64(0), uint64(256), uint64(512)
	access(c, a, 4, mem.Read, 0)
	access(c, b, 4, mem.Read, 1)
	access(c, d, 4, mem.Read, 2) // evicts a (LRU)
	// b must still be resident.
	if outs := access(c, b, 4, mem.Read, 3); len(outs) != 0 {
		t.Errorf("b evicted but should be resident (LRU was a)")
	}
	// a must have been evicted.
	if outs := access(c, a, 4, mem.Read, 4); len(outs) != 1 {
		t.Errorf("a still resident, want evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(tinyConfig())
	access(c, 0, 4, mem.Write, 0) // fill + dirty
	access(c, 256, 4, mem.Read, 1)
	outs := access(c, 512, 4, mem.Read, 2) // evicts dirty line 0
	var sawWB bool
	for _, r := range outs {
		if r.Op == mem.Write && r.Addr == 0 && r.Size == 64 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Errorf("dirty eviction traffic = %+v, want writeback of line 0", outs)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteAllocateReadForOwnership(t *testing.T) {
	c := New(tinyConfig())
	outs := access(c, 0, 4, mem.Write, 0)
	if len(outs) != 1 || outs[0].Op != mem.Read {
		t.Fatalf("write miss traffic = %+v, want RFO line read", outs)
	}
}

func TestNonTemporalWritesBypass(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	// The store buffers in a write-combining slot until the line changes.
	outs := access(c, 0, 64, mem.Write, 0)
	if len(outs) != 0 {
		t.Fatalf("NT write must buffer, got %+v", outs)
	}
	if c.Stats().Fills != 0 {
		t.Error("NT write must not allocate")
	}
	outs = c.FlushWC(nil)
	if len(outs) != 1 || outs[0].Op != mem.Write || outs[0].Size != 64 {
		t.Fatalf("flushed NT traffic = %+v, want one 64B write", outs)
	}
	// A partial NT write flushes exactly its byte count (at line base:
	// masked writes are modelled at line granularity).
	access(c, 100, 8, mem.Write, 0)
	outs = c.FlushWC(nil)
	if len(outs) != 1 || outs[0].Addr != 64 || outs[0].Size != 8 {
		t.Fatalf("partial NT flush = %+v, want 8B at line base 64", outs)
	}
}

func TestNonTemporalWriteInvalidates(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	access(c, 0, 4, mem.Read, 0)   // line cached
	access(c, 0, 64, mem.Write, 1) // NT write invalidates
	outs := access(c, 0, 4, mem.Read, 2)
	if len(outs) != 1 {
		t.Errorf("read after NT write must miss (line invalidated), traffic %+v", outs)
	}
}

// A non-temporal store skips its probe for a line outside the range the
// cache has allocated since Reset, so the range must be exact at both
// ends: a store to a held line at either end still drops it, and a
// store just outside leaves every held line in place.
func TestNonTemporalWriteInvalidatesAtRangeEdges(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	access(c, 0, 4, mem.Read, 0)
	access(c, 100*64, 4, mem.Read, 0)
	c.Reset()
	const lo, hi = 10, 12
	access(c, lo*64, 4, mem.Read, 1)
	access(c, hi*64, 4, mem.Read, 1) // allocated range [lo, hi]
	access(c, (lo-1)*64, 64, mem.Write, 0)
	access(c, (hi+1)*64, 64, mem.Write, 0)
	// Streams 2 and 3 have touched neither line: no L1 shortcut.
	if outs := access(c, lo*64, 4, mem.Read, 2); len(outs) != 0 {
		t.Errorf("line %d dropped by a store outside the range, traffic %+v", lo, outs)
	}
	if outs := access(c, hi*64, 4, mem.Read, 3); len(outs) != 0 {
		t.Errorf("line %d dropped by a store outside the range, traffic %+v", hi, outs)
	}
	access(c, lo*64, 64, mem.Write, 0)
	access(c, hi*64, 64, mem.Write, 0)
	for _, r := range []struct {
		line   uint64
		stream uint8
	}{{lo, 3}, {hi, 2}} {
		outs := access(c, r.line*64, 4, mem.Read, r.stream)
		if len(outs) != 1 || outs[0].Op != mem.Read {
			t.Errorf("read of line %d after a store at the range's edge must miss, traffic %+v", r.line, outs)
		}
	}
}

func TestNTWriteSpanningLines(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	// 128B write spanning three lines starting mid-line: the first two
	// pieces flush as the store crosses line boundaries, the tail stays
	// buffered until FlushWC.
	outs := access(c, 32, 128, mem.Write, 0)
	outs = c.FlushWC(outs)
	var total uint32
	for _, r := range outs {
		if r.Op != mem.Write {
			t.Fatalf("unexpected op in %+v", r)
		}
		total += r.Size
	}
	if total != 128 {
		t.Errorf("NT write bytes = %d, want 128", total)
	}
	if len(outs) != 3 { // 32B tail of line 0, line 1, 32B head of line 2
		t.Errorf("NT write pieces = %d, want 3", len(outs))
	}
}

func TestRequestSpanningLines(t *testing.T) {
	c := New(tinyConfig())
	outs := access(c, 60, 8, mem.Read, 0) // straddles lines 0 and 1
	if len(outs) != 2 {
		t.Fatalf("straddling read fills = %d, want 2", len(outs))
	}
}

func TestZeroSizeRequest(t *testing.T) {
	c := New(tinyConfig())
	outs := access(c, 60, 0, mem.Read, 0)
	if len(outs) != 0 || c.Stats().Accesses != 0 {
		t.Error("zero-size request must be a no-op")
	}
}

func TestResetRestoresColdState(t *testing.T) {
	c := New(tinyConfig())
	access(c, 0, 4, mem.Read, 0)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Error("Reset must clear stats")
	}
	outs := access(c, 0, 4, mem.Read, 0)
	if len(outs) != 1 {
		t.Error("Reset must clear contents (expected cold miss)")
	}
}

func TestCapacityResidentSecondPassAllHits(t *testing.T) {
	c := New(llcConfig())
	// 256 KB footprint in a 1 MB cache.
	walk := func() uint64 {
		var fills uint64
		before := c.Stats().Fills
		for addr := uint64(0); addr < 256<<10; addr += 64 {
			c.Access(mem.Request{Addr: addr, Size: 64, Op: mem.Read, Stream: 0}, nil)
		}
		fills = c.Stats().Fills - before
		return fills
	}
	cold := walk()
	warm := walk()
	if cold != 4096 {
		t.Errorf("cold fills = %d, want 4096", cold)
	}
	if warm != 0 {
		t.Errorf("warm fills = %d, want 0 (capacity resident)", warm)
	}
}

func TestStreamingLargerThanCapacityAlwaysMisses(t *testing.T) {
	c := New(llcConfig())
	// 4 MB footprint in a 1 MB cache: second pass must still miss.
	walk := func() uint64 {
		before := c.Stats().Fills
		for addr := uint64(0); addr < 4<<20; addr += 64 {
			c.Access(mem.Request{Addr: addr, Size: 64, Op: mem.Read, Stream: 0}, nil)
		}
		return c.Stats().Fills - before
	}
	walk()
	warm := walk()
	if warm != 65536 {
		t.Errorf("second-pass fills = %d, want 65536 (LRU streaming evicts everything)", warm)
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

func TestMissFilter(t *testing.T) {
	c := New(llcConfig())
	it, err := mem.NewIter(mem.ContiguousPattern(), 0, 1024, 4, mem.Read, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewMissFilter(c, it)
	var fills int
	var bytes uint64
	for _, r := range drain(f) {
		if r.Op != mem.Read || r.Size != 64 {
			t.Fatalf("unexpected memory-side request %+v", r)
		}
		fills++
		bytes += uint64(r.Size)
	}
	// 1024 x 4B contiguous = 4 KB = 64 lines.
	if fills != 64 || bytes != 4096 {
		t.Errorf("fills = %d bytes = %d, want 64 fills / 4096 bytes", fills, bytes)
	}
}

func TestMissFilterRemaining(t *testing.T) {
	c := New(llcConfig())
	it, err := mem.NewIter(mem.ContiguousPattern(), 0, 16, 4, mem.Read, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewMissFilter(c, it)
	// 16 x 4B reads share one 64B line: one fill, then nothing remains.
	var one [1]mem.Request
	if n := mem.Fill(f, one[:]); n != 1 || one[0].Size != 64 {
		t.Fatalf("first fill = %d %+v, want one 64B line", n, one[0])
	}
	if rest := drain(f); len(rest) != 0 {
		t.Errorf("after the fill %d requests remain, want 0", len(rest))
	}
}

// Property: fills never exceed line probes, and every fill is a full line.
func TestQuickFillInvariants(t *testing.T) {
	f := func(addrs []uint32, write bool) bool {
		c := New(llcConfig())
		op := mem.Read
		if write {
			op = mem.Write
		}
		var traffic []mem.Request
		for _, a := range addrs {
			traffic = c.Access(mem.Request{Addr: uint64(a), Size: 4, Op: op, Stream: 0}, traffic)
		}
		st := c.Stats()
		if st.Fills > st.LineProbes {
			return false
		}
		for _, r := range traffic {
			if r.Op == mem.Read && r.Size != 64 {
				return false
			}
		}
		return st.Hits+st.Misses == st.LineProbes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for non-overlapping stores, a non-temporal configuration
// conserves written bytes exactly once write-combining buffers flush.
func TestQuickNTByteConservation(t *testing.T) {
	cfg := llcConfig()
	cfg.NonTemporalWrites = true
	f := func(gaps []uint16, sz uint8) bool {
		c := New(cfg)
		size := uint32(sz%64) + 1
		var want, got uint64
		var traffic []mem.Request
		addr := uint64(0)
		for _, g := range gaps {
			want += uint64(size)
			traffic = c.Access(mem.Request{Addr: addr, Size: size, Op: mem.Write, Stream: 0}, traffic)
			addr += uint64(size) + uint64(g%512)
		}
		traffic = c.FlushWC(traffic)
		for _, r := range traffic {
			if r.Op == mem.Write {
				got += uint64(r.Size)
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteValidateFullLine(t *testing.T) {
	cfg := tinyConfig()
	cfg.WriteValidate = true
	c := New(cfg)
	// Full-line write: no fill, line allocated dirty.
	outs := access(c, 0, 64, mem.Write, 0)
	if len(outs) != 0 {
		t.Fatalf("full-line validated write produced traffic: %+v", outs)
	}
	if c.Stats().Validates != 1 || c.Stats().Fills != 0 {
		t.Errorf("stats = %+v, want 1 validate 0 fills", c.Stats())
	}
	// The dirty line writes back on eviction.
	access(c, 256, 4, mem.Read, 1)
	outs = access(c, 512, 4, mem.Read, 2)
	var sawWB bool
	for _, r := range outs {
		if r.Op == mem.Write && r.Addr == 0 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Errorf("validated dirty line must write back on eviction: %+v", outs)
	}
}

func TestWriteValidatePartialLine(t *testing.T) {
	// Masked writes need no fetch: even a partial write miss validates.
	cfg := tinyConfig()
	cfg.WriteValidate = true
	c := New(cfg)
	outs := access(c, 0, 4, mem.Write, 0)
	if len(outs) != 0 {
		t.Fatalf("partial validated write produced traffic: %+v", outs)
	}
	if c.Stats().Validates != 1 {
		t.Error("partial write must validate")
	}
	// Eviction writes the whole line back (byte-enable granularity is
	// below this model's resolution; bus time is per line anyway).
	access(c, 256, 4, mem.Read, 1)
	outs = access(c, 512, 4, mem.Read, 2)
	var wb bool
	for _, r := range outs {
		if r.Op == mem.Write && r.Addr == 0 {
			wb = true
		}
	}
	if !wb {
		t.Error("validated partial line must write back on eviction")
	}
}

func TestWriteValidateIgnoredUnderNT(t *testing.T) {
	cfg := tinyConfig()
	cfg.WriteValidate = true
	cfg.NonTemporalWrites = true
	c := New(cfg)
	access(c, 0, 64, mem.Write, 0)
	outs := c.FlushWC(nil)
	if len(outs) != 1 || outs[0].Op != mem.Write {
		t.Fatalf("NT must dominate WriteValidate: %+v", outs)
	}
	if c.Stats().Validates != 0 {
		t.Error("NT store must not count as a validate")
	}
}

func TestNTWriteCombining(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	// Eight stride-2 word stores into one line combine into one flush.
	var traffic []mem.Request
	for i := 0; i < 8; i++ {
		traffic = c.Access(mem.Request{Addr: uint64(i * 8), Size: 4, Op: mem.Write, Stream: 0}, traffic)
	}
	if len(traffic) != 0 {
		t.Fatalf("stores within one line must stay buffered: %+v", traffic)
	}
	// Moving to the next line flushes the previous buffer.
	traffic = c.Access(mem.Request{Addr: 64, Size: 4, Op: mem.Write, Stream: 0}, traffic)
	if len(traffic) != 1 {
		t.Fatalf("expected one flushed WC write, got %+v", traffic)
	}
	if traffic[0].Addr != 0 || traffic[0].Size != 32 || traffic[0].Op != mem.Write {
		t.Errorf("flushed write = %+v, want 32 bytes at line 0", traffic[0])
	}
}

func TestFlushWC(t *testing.T) {
	cfg := tinyConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	c.Access(mem.Request{Addr: 0, Size: 4, Op: mem.Write, Stream: 0}, nil)
	c.Access(mem.Request{Addr: 128, Size: 8, Op: mem.Write, Stream: 1}, nil)
	out := c.FlushWC(nil)
	if len(out) != 2 {
		t.Fatalf("FlushWC emitted %d, want 2", len(out))
	}
	// Flushing twice is a no-op.
	if again := c.FlushWC(nil); len(again) != 0 {
		t.Errorf("second flush emitted %+v", again)
	}
}

func TestMissFilterFlushesTrailingWC(t *testing.T) {
	cfg := llcConfig()
	cfg.NonTemporalWrites = true
	c := New(cfg)
	it, err := mem.NewIter(mem.ContiguousPattern(), 0, 32, 4, mem.Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewMissFilter(c, it)
	var bytes uint64
	for _, r := range drain(f) {
		bytes += uint64(r.Size)
	}
	// 32 x 4B contiguous stores = 128 bytes, including the trailing line.
	if bytes != 128 {
		t.Errorf("memory-side write bytes = %d, want 128", bytes)
	}
}

// A MissFilter passes its upstream's pause through. At the pause, the
// traffic so far plus the flush Resume hands back must equal what a
// filter whose upstream ended there yields, FlushWC included; the
// resumed stream must go on exactly as a filter that never paused.
func TestMissFilterPause(t *testing.T) {
	cfg := llcConfig()
	cfg.NonTemporalWrites = true
	const elems = 300
	// A copy of 4-byte words: reads fill lines, stores combine in the
	// write-combining buffers across several requests per line.
	build := func() mem.Source {
		w, _ := mem.NewKernelWalk(mem.ContiguousPattern(), elems, 4, 4,
			mem.Array{Base: 0, Op: mem.Read, Stream: 1}, mem.Array{Base: 1 << 31, Op: mem.Write, Stream: 0})
		return w
	}
	for _, at := range []int{0, 1, 2, 31, 32, 33, 127, 128, 129, 2*elems - 1, 2 * elems} {
		c, short, whole := New(cfg), New(cfg), New(cfg)
		f := NewMissFilter(c, mem.NewPausingLimit(build(), at, 2*elems))
		got := drain(f)
		if !f.Paused() {
			t.Fatalf("pause at %d: the filter ran dry without pausing", at)
		}
		stats := c.Stats()
		tail := drain(f.Resume())
		if f.Paused() {
			t.Fatalf("pause at %d: still paused after Resume", at)
		}
		want := drain(NewMissFilter(short, mem.NewLimit(build(), at)))
		if !slices.Equal(append(slices.Clone(got), tail...), want) || stats != short.Stats() {
			t.Errorf("pause at %d: %v then flush %v with %+v; a filter ended there yields %v with %+v",
				at, got, tail, stats, want, short.Stats())
		}
		rest := drain(f)
		want = drain(NewMissFilter(whole, mem.NewLimit(build(), 2*elems)))
		if !slices.Equal(append(got, rest...), want) || c.Stats() != whole.Stats() {
			t.Errorf("pause at %d: the resumed stream diverges from an unpaused one", at)
		}
	}
}
