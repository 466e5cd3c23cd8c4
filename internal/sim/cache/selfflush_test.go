package cache

import (
	"fmt"
	"reflect"
	"testing"

	"mpstream/internal/sim/mem"
)

// flushCase is a small cache and a contiguous kernel walk over it,
// decoded from nine bytes:
//
//	0  ways-1 (mod 8)       3  flags: 1 non-temporal, 2 write-validate, 4 hashed sets
//	1  log2 sets (mod 5)    4  arrays-1 (mod 3); bit 7 puts array 1 on array 0
//	2  log2 line/16 (mod 3) 5  bit i: array i writes
//	6  log2 elem/4 (mod 4), bits 2-3 log2 window/elem
//	7, 8  elems-1 (mod 4096), big-endian
//
// Array i carries stream tag i and starts at i MiB, so arrays never
// share a line unless bit 7 of byte 4 aliases the first two.
type flushCase struct {
	cfg    Config
	elems  int
	elemB  uint32
	window uint32
	arrays []mem.Array
}

func decodeFlushCase(b []byte) flushCase {
	line := uint32(16) << (b[2] % 3)
	ways := 1 + int(b[0]%8)
	sets := uint64(1) << (b[1] % 5)
	fc := flushCase{
		cfg: Config{Name: "flush", CapacityBytes: sets * uint64(ways) * uint64(line), LineBytes: line, Ways: ways,
			NonTemporalWrites: b[3]&1 != 0, WriteValidate: b[3]&2 != 0, HashSets: b[3]&4 != 0},
		elems: 1 + int(uint16(b[7])<<8|uint16(b[8]))%4096,
		elemB: 4 << (b[6] % 4),
	}
	fc.window = fc.elemB << (b[6] >> 2 % 4)
	for i := range 1 + int(b[4]&0x7f)%3 {
		a := mem.Array{Base: uint64(i) << 20, Op: mem.Read, Stream: uint8(i)}
		if i == 1 && b[4]&0x80 != 0 {
			a.Base = 0
		}
		if b[5]>>i&1 != 0 {
			a.Op = mem.Write
		}
		fc.arrays = append(fc.arrays, a)
	}
	return fc
}

// run presents the walk to c through a MissFilter and returns the
// memory-side requests and the statistics it added.
func (fc flushCase) run(t *testing.T, c *Cache) ([]mem.Request, Stats) {
	t.Helper()
	w, err := mem.NewKernelWalk(mem.ContiguousPattern(), fc.elems, fc.elemB, fc.window, fc.arrays...)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	out := drain(NewMissFilter(c, w))
	return out, c.Stats().Delta(before)
}

// heldLine is one valid line of a set, as SelfFlushed promises a repeat
// leaves it.
type heldLine struct {
	tag   uint64
	dirty bool
}

// held lists each set's valid lines from MRU to LRU: the cache's state
// up to way indices.
func held(c *Cache) [][]heldLine {
	out := make([][]heldLine, c.sets)
	for set := range c.sets {
		m, base := c.block(set), set*uint64(c.ways)
		w := m[metaMRU]
		for range popcount(c.valid[set]) {
			out[set] = append(out[set], heldLine{c.tags[base+uint64(w)], c.dirty[set]>>w&1 != 0})
			w = m[c.nextAt(w)]
		}
	}
	return out
}

func popcount(x uint64) (n int) {
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Seeds of FuzzSelfFlushed: one walk that self-flushes and one that
// breaks each condition SelfFlushed checks. differs says whether the
// repeat then meets an access differently, which shows the condition
// is not idle.
var flushSeeds = []struct {
	name    string
	data    []byte
	holds   bool
	differs bool
	reason  string
}{
	{"streams past every set", []byte{1, 2, 0, 5, 1, 2, 8, 0, 255}, true, false, ""},
	{"a set with exactly W insertions", []byte{1, 0, 0, 0, 0, 0, 8, 0, 7}, false, true,
		"the repeat hits the lines the set never evicted"},
	// An aliased pair of arrays probes each line twice in a row, so the
	// second probe hits; the repeat happens to agree, but a line probed
	// early and again late would meet the repeat's stale copy.
	{"a line probed twice", []byte{1, 0, 0, 0, 0x81, 0, 8, 0, 63}, false, false, ""},
	{"a dirty line left behind", []byte{3, 0, 0, 0, 2, 4, 8, 0, 7}, false, true,
		"the repeat's first miss writes the dirty LRU line back"},
	{"a one-line read stream whose first line is its last", []byte{0, 0, 0, 0, 1, 0, 0, 0, 1}, false, true,
		"the repeat's first access is an L1 hit"},
}

// Each seed that breaks a condition of SelfFlushed fails it, and where
// the seed says so its repeat differs from the cold run.
func TestSelfFlushedSeeds(t *testing.T) {
	for _, s := range flushSeeds {
		t.Run(s.name, func(t *testing.T) {
			fc := decodeFlushCase(s.data)
			c := New(fc.cfg)
			out, st := fc.run(t, c)
			if got := c.SelfFlushed(); got != s.holds {
				t.Fatalf("SelfFlushed = %v, want %v", got, s.holds)
			}
			again, st2 := fc.run(t, c)
			if differs := !reflect.DeepEqual(out, again) || st != st2; differs != s.differs {
				t.Errorf("repeat differs from the cold run: %v, want %v %s", differs, s.differs, s.reason)
			}
		})
	}
}

// FuzzSelfFlushed holds SelfFlushed to its promise: whenever it holds
// after a cold run of a contiguous kernel walk, a second and a third run
// on the same cache make the same memory-side requests, add the same
// statistics and leave the same lines in the same recency order.
//
// Run with: go test -run '^$' -fuzz FuzzSelfFlushed ./internal/sim/cache
func FuzzSelfFlushed(f *testing.F) {
	for _, s := range flushSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		fc := decodeFlushCase(data)
		if err := fc.cfg.Validate(); err != nil {
			t.Fatalf("decoded config %+v rejected: %v", fc.cfg, err)
		}
		c := New(fc.cfg)
		out, st := fc.run(t, c)
		if !c.SelfFlushed() {
			return
		}
		state := held(c)
		for i := 2; i <= 3; i++ {
			label := fmt.Sprintf("%+v, run %d", fc, i)
			again, st2 := fc.run(t, c)
			if !reflect.DeepEqual(out, again) {
				t.Fatalf("%s: requests differ from the cold run's", label)
			}
			if st2 != st {
				t.Fatalf("%s: stats %+v, the cold run %+v", label, st2, st)
			}
			if got := held(c); !reflect.DeepEqual(got, state) {
				t.Fatalf("%s: left lines %v, the cold run %v", label, got, state)
			}
		}
	})
}

// A write-combining buffer left open would merge the repeat's first
// store into it: SelfFlushed holds only once the buffers are flushed.
func TestSelfFlushedNeedsFlushedWC(t *testing.T) {
	c := New(Config{Name: "wc", CapacityBytes: 4 * 2 * 16, LineBytes: 16, Ways: 2, NonTemporalWrites: true})
	for addr := uint64(0); addr < 1024; addr += 16 {
		c.Access(mem.Request{Addr: 1<<20 + addr, Size: 16, Op: mem.Read, Stream: 1}, nil)
		c.Access(mem.Request{Addr: addr, Size: 8, Op: mem.Write, Stream: 0}, nil)
	}
	if c.SelfFlushed() {
		t.Error("SelfFlushed holds with a write-combining buffer open")
	}
	c.FlushWC(nil)
	if !c.SelfFlushed() {
		t.Error("SelfFlushed fails after the buffers flushed")
	}
}
