// Package cache models a set-associative, write-back, write-allocate
// last-level cache with LRU replacement, plus the inner-level (L1) line
// traffic that determines cache-resident streaming bandwidth.
//
// The CPU device drives its word-granularity request stream through a
// Cache; the cache absorbs hits and emits line-granularity fills and
// writebacks that the DRAM model then times. Two refinements matter for
// STREAM-style workloads:
//
//   - consecutive accesses to the same line (per stream) are L1-resident
//     and cost no inner-level line transfer, so a contiguous walk moves
//     one line per 16 words while a large-stride walk moves one line per
//     word — that asymmetry is the cache-resident strided penalty;
//   - optionally, writes bypass allocation (non-temporal/streaming
//     stores), which is how OpenCL CPU runtimes avoid the
//     read-for-ownership traffic that would otherwise make STREAM copy
//     move 3x bytes.
package cache

import (
	"fmt"
	"math/bits"

	"mpstream/internal/sim/mem"
)

// Config describes a last-level cache.
type Config struct {
	Name          string
	CapacityBytes uint64
	LineBytes     uint32
	Ways          int
	// NonTemporalWrites makes write misses bypass allocation entirely:
	// the write goes straight to memory and no line is filled or dirtied.
	NonTemporalWrites bool
	// WriteValidate makes write misses allocate the line dirty without
	// fetching it first (GPU sectored caches over memories with masked
	// writes: byte enables make the fetch unnecessary). Ignored when
	// NonTemporalWrites is set.
	WriteValidate bool
	// HashSets XOR-folds the line address into the set index so
	// power-of-two strides spread over all sets instead of thrashing a
	// few (GPU caches hash; classic CPU LLCs index linearly).
	HashSets bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !mem.CheckPow2(c.LineBytes) || c.LineBytes == 0:
		return fmt.Errorf("cache %q: line bytes %d must be a power of two", c.Name, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %q: ways must be positive", c.Name)
	case c.Ways > 64:
		return fmt.Errorf("cache %q: %d ways exceed the model's limit of 64", c.Name, c.Ways)
	case c.CapacityBytes == 0 || c.CapacityBytes%(uint64(c.LineBytes)*uint64(c.Ways)) != 0:
		return fmt.Errorf("cache %q: capacity %d not divisible into %d ways of %d-byte lines",
			c.Name, c.CapacityBytes, c.Ways, c.LineBytes)
	}
	sets := c.CapacityBytes / (uint64(c.LineBytes) * uint64(c.Ways))
	if !mem.CheckPow2(uint32(sets)) {
		return fmt.Errorf("cache %q: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() uint64 {
	return c.CapacityBytes / (uint64(c.LineBytes) * uint64(c.Ways))
}

// Stats accumulates cache activity across accesses.
type Stats struct {
	Accesses    uint64 // requests presented
	LineProbes  uint64 // line-granularity lookups
	Hits        uint64
	Misses      uint64
	Fills       uint64 // lines read from memory
	Writebacks  uint64 // dirty lines written back
	Bypasses    uint64 // non-temporal writes sent straight to memory
	BypassBytes uint64 // bytes carried by non-temporal writes
	Validates   uint64 // write misses allocated without a fill
	L1Transfers uint64 // lines moved between inner level and this cache
}

// Delta returns the difference s - prev, field-wise; use it to isolate
// the activity of one run on a long-lived cache.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Accesses:    s.Accesses - prev.Accesses,
		LineProbes:  s.LineProbes - prev.LineProbes,
		Hits:        s.Hits - prev.Hits,
		Misses:      s.Misses - prev.Misses,
		Fills:       s.Fills - prev.Fills,
		Writebacks:  s.Writebacks - prev.Writebacks,
		Bypasses:    s.Bypasses - prev.Bypasses,
		BypassBytes: s.BypassBytes - prev.BypassBytes,
		Validates:   s.Validates - prev.Validates,
		L1Transfers: s.L1Transfers - prev.L1Transfers,
	}
}

// HitRate returns Hits / LineProbes.
func (s Stats) HitRate() float64 {
	if s.LineProbes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.LineProbes)
}

// L1TransferBytes returns the inner-level line traffic in bytes.
func (s Stats) L1TransferBytes(lineBytes uint32) uint64 {
	return s.L1Transfers * uint64(lineBytes)
}

// Cache is a set-associative cache with persistent state, so repeated
// kernel invocations see warm caches exactly as hardware does. Reset
// restores the cold state.
//
// Way state is stored structure-of-arrays: a probe scans the set's slice
// of the contiguous tag array (plus one validity word) instead of a
// strided walk over 24-byte way structs, so the per-request scans that
// dominate strided DRAM-resident workloads touch a third of the memory.
// Invalid ways keep tag and LRU stamp zero, which the victim selection
// relies on.
type Cache struct {
	cfg   Config
	sets  uint64
	ways  int
	tick  uint64
	stats Stats

	tags  []uint64 // sets x ways line tags
	used  []uint64 // sets x ways LRU timestamps (0 = never / invalid)
	valid []uint64 // per-set validity bitmask (Ways <= 64, enforced by Validate)
	dirty []uint64 // per-set dirty bitmask

	// Power-of-two geometry in shift/mask form: lineShift replaces the
	// per-line division by LineBytes, setsMask the modulo by the set
	// count. Both are hot once per probed line.
	lineShift uint
	setsMask  uint64

	// lastLine tracks the most recently touched line per stream tag (the
	// L1-residency approximation). Indexed by stream&(len-1); a benchmark
	// touches at most three streams so collisions do not occur in
	// practice, and a collision only costs a spurious L1 transfer.
	lastLine  [8]uint64
	lastValid [8]bool

	// Write-combining buffers for non-temporal stores: one open line per
	// stream accumulating store bytes; it flushes as a single (masked)
	// memory write when the stream moves to another line.
	wcLine  [8]uint64
	wcBytes [8]uint32
	wcValid [8]bool
}

// New builds a cache, panicking on invalid configuration (configurations
// are compile-time constants of the device packages).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, sets: cfg.Sets(), ways: cfg.Ways}
	c.lineShift = mem.Log2(uint64(cfg.LineBytes))
	c.setsMask = c.sets - 1
	c.tags = make([]uint64, c.sets*uint64(cfg.Ways))
	c.used = make([]uint64, c.sets*uint64(cfg.Ways))
	c.valid = make([]uint64, c.sets)
	c.dirty = make([]uint64, c.sets)
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset restores cold state and clears statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.used)
	clear(c.valid)
	clear(c.dirty)
	c.tick = 0
	c.stats = Stats{}
	c.lastLine = [8]uint64{}
	c.lastValid = [8]bool{}
	c.wcLine = [8]uint64{}
	c.wcBytes = [8]uint32{}
	c.wcValid = [8]bool{}
}

// ResetStats clears statistics but keeps cache contents warm.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
}

// Access presents one request. It appends to out (and returns the extended
// slice) the memory-side requests the access generates: line fills as
// reads, writebacks and bypassed stores as writes. Reusing out across
// calls avoids per-access allocation.
func (c *Cache) Access(r mem.Request, out []mem.Request) []mem.Request {
	if r.Size == 0 {
		return out
	}
	c.stats.Accesses++
	line := uint64(c.cfg.LineBytes)
	first := mem.Align(r.Addr, c.cfg.LineBytes)
	end := r.Addr + uint64(r.Size)

	for addr := first; addr < end; addr += line {
		c.stats.LineProbes++
		lineID := addr >> c.lineShift

		slot := r.Stream & 7

		if r.Op == mem.Write && c.cfg.NonTemporalWrites {
			// Streaming store: bypass the hierarchy. Invalidate a matching
			// line so later reads see memory, then accumulate the bytes in
			// the stream's write-combining buffer; the buffer flushes as
			// one masked write when the stream leaves the line.
			c.invalidate(lineID)
			c.stats.Bypasses++
			c.lastLine[slot], c.lastValid[slot] = lineID, true
			lo, hi := addr, addr+line
			if lo < r.Addr {
				lo = r.Addr
			}
			if hi > end {
				hi = end
			}
			bytes := uint32(hi - lo)
			c.stats.BypassBytes += uint64(bytes)
			if c.wcValid[slot] && c.wcLine[slot] == lineID {
				c.wcBytes[slot] += bytes
				if c.wcBytes[slot] > uint32(line) {
					c.wcBytes[slot] = uint32(line)
				}
				continue
			}
			out = c.flushWCSlot(int(slot), slot, out)
			c.wcLine[slot], c.wcBytes[slot], c.wcValid[slot] = lineID, bytes, true
			continue
		}

		// L1 residency: repeated touches of the same line by the same
		// stream cost no inner-level transfer.
		if c.lastValid[slot] && c.lastLine[slot] == lineID {
			c.stats.Hits++
			continue
		}
		c.lastLine[slot], c.lastValid[slot] = lineID, true

		set := c.setIndex(lineID)
		base := set * uint64(c.ways)
		tags := c.tags[base : base+uint64(c.ways)]
		vmask := c.valid[set]
		c.tick++

		// Probe the valid ways' tags (a line occupies at most one way).
		hitIdx := -1
		for m := vmask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if tags[i] == lineID {
				hitIdx = i
				break
			}
		}
		if hitIdx >= 0 {
			c.stats.Hits++
			c.stats.L1Transfers++
			c.used[base+uint64(hitIdx)] = c.tick
			if r.Op == mem.Write {
				c.dirty[set] |= 1 << uint(hitIdx)
			}
			continue
		}

		// Miss: pick the victim. The first invalid way past index 0 wins
		// outright; otherwise the earliest least-recently-used way —
		// invalid ways keep a zero LRU stamp, so an invalid way 0 loses
		// only to another invalid way, exactly the replacement order of
		// the reference implementation.
		c.stats.Misses++
		victim := 0
		if inv := ^vmask & (^uint64(0) >> (64 - uint(c.ways))); inv>>1 != 0 {
			victim = bits.TrailingZeros64(inv >> 1)
			victim++
		} else {
			used := c.used[base : base+uint64(c.ways)]
			for i := 1; i < len(used); i++ {
				if used[i] < used[victim] {
					victim = i
				}
			}
		}
		vbit := uint64(1) << uint(victim)
		if vmask&vbit != 0 && c.dirty[set]&vbit != 0 {
			c.stats.Writebacks++
			out = append(out, mem.Request{
				Addr:   tags[victim] << c.lineShift,
				Size:   uint32(line),
				Op:     mem.Write,
				Stream: r.Stream,
			})
		}
		// Fill (write-allocate), unless a write validates the line
		// without fetching it.
		if c.cfg.WriteValidate && r.Op == mem.Write {
			c.stats.Validates++
			c.stats.L1Transfers++
		} else {
			c.stats.Fills++
			c.stats.L1Transfers++
			out = append(out, mem.Request{
				Addr:   addr,
				Size:   uint32(line),
				Op:     mem.Read,
				Stream: r.Stream,
			})
		}
		tags[victim] = lineID
		c.used[base+uint64(victim)] = c.tick
		c.valid[set] |= vbit
		if r.Op == mem.Write {
			c.dirty[set] |= vbit
		} else {
			c.dirty[set] &^= vbit
		}
	}
	return out
}

// setIndex maps a line to its set, optionally hashing to break up
// power-of-two stride conflicts.
func (c *Cache) setIndex(lineID uint64) uint64 {
	if c.cfg.HashSets {
		h := lineID ^ lineID>>11 ^ lineID>>23
		return h & c.setsMask
	}
	return lineID & c.setsMask
}

// flushWCSlot emits the slot's pending write-combining buffer, if any.
func (c *Cache) flushWCSlot(slot int, stream uint8, out []mem.Request) []mem.Request {
	if !c.wcValid[slot] {
		return out
	}
	c.wcValid[slot] = false
	return append(out, mem.Request{
		Addr:   c.wcLine[slot] << c.lineShift,
		Size:   c.wcBytes[slot],
		Op:     mem.Write,
		Stream: stream,
	})
}

// FlushWC emits every pending write-combining buffer; call it when a
// request stream ends so trailing store bytes reach memory.
func (c *Cache) FlushWC(out []mem.Request) []mem.Request {
	for slot := range c.wcLine {
		out = c.flushWCSlot(slot, uint8(slot), out)
	}
	return out
}

// invalidate drops a line if present (without writeback: used by
// non-temporal stores which overwrite the whole line). The dropped way
// returns to the never-used state: zero tag and LRU stamp.
func (c *Cache) invalidate(lineID uint64) {
	set := c.setIndex(lineID)
	base := set * uint64(c.ways)
	tags := c.tags[base : base+uint64(c.ways)]
	for m := c.valid[set]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if tags[i] == lineID {
			bit := uint64(1) << uint(i)
			c.valid[set] &^= bit
			c.dirty[set] &^= bit
			tags[i] = 0
			c.used[base+uint64(i)] = 0
			return
		}
	}
}

// MissFilter adapts a Cache into a mem.Source transformer: it pulls from
// an upstream source, services each request against the cache, and yields
// only the memory-side traffic. Feed it to a dram.Model to time the
// hierarchy below the cache.
type MissFilter struct {
	cache   *Cache
	src     mem.Source
	queue   []mem.Request
	qHead   int
	flushed bool

	// Upstream prefetch buffer (created on the first NextBatch call):
	// requests are pulled a batch at a time through mem.Fill so the
	// generator chain above runs its own batched paths.
	in    []mem.Request
	inPos int
	inLen int
}

// missFilterBatch is the upstream prefetch depth.
const missFilterBatch = 128

// NewMissFilter wraps src with the cache.
func NewMissFilter(c *Cache, src mem.Source) *MissFilter {
	return &MissFilter{cache: c, src: src}
}

// Remaining is an upper bound on pending memory-side requests: queued
// traffic plus one potential request per upstream element (a fill and a
// writeback can momentarily exceed this, so treat it as approximate).
func (f *MissFilter) Remaining() int {
	return len(f.queue) - f.qHead + (f.inLen - f.inPos) + f.src.Remaining()
}

// NextBatch yields memory-side requests: queued traffic drains with one
// copy, upstream requests arrive in batches, and the cache is probed
// inline instead of through an interface call per upstream request.
func (f *MissFilter) NextBatch(dst []mem.Request) int {
	n := 0
	for n < len(dst) {
		if f.qHead < len(f.queue) {
			k := copy(dst[n:], f.queue[f.qHead:])
			f.qHead += k
			n += k
			continue
		}
		f.queue = f.queue[:0]
		f.qHead = 0
		if f.inPos >= f.inLen {
			if f.in == nil {
				f.in = make([]mem.Request, missFilterBatch)
			}
			f.inLen = mem.Fill(f.src, f.in)
			f.inPos = 0
			if f.inLen == 0 {
				if !f.flushed {
					f.flushed = true
					f.queue = f.cache.FlushWC(f.queue)
					if len(f.queue) > 0 {
						continue
					}
				}
				break
			}
		}
		for f.inPos < f.inLen {
			f.queue = f.cache.Access(f.in[f.inPos], f.queue)
			f.inPos++
		}
	}
	return n
}
