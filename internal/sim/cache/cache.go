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
	"encoding/binary"
	"fmt"
	"math"
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
// Neither the probe nor the victim choice scans a full set's ways:
//
//   - a probe of a set with more than scanWays valid ways compares one
//     8-bit tag fingerprint per way, eight ways to a packed word (SWAR),
//     and confirms each candidate by its valid bit and full tag; a miss
//     in a full 24-way set reads three fingerprint words and, barring a
//     fingerprint collision, no tag;
//   - each set keeps an exact LRU recency list, a ring of byte links
//     holding precisely its valid ways, with its MRU and LRU way bytes,
//     so a miss on a full set takes the LRU way.
//
// Tags, valid masks and dirty masks are arrays; each set's ring ends,
// fingerprints and links share one metadata block. Per way that is 11
// bytes: the tag, a fingerprint and two links. The valid mask is the
// only truth about occupancy: an invalidated way keeps its stale tag,
// fingerprint and links, which nothing trusts.
type Cache struct {
	cfg   Config
	sets  uint64
	ways  int
	stats Stats

	tags    []uint64 // sets x ways line tags
	valid   []uint64 // per-set validity bitmask (Ways <= 64, enforced by Validate)
	dirty   []uint64 // per-set dirty bitmask
	meta    []byte   // sets x stride metadata blocks
	stride  uint64   // bytes per metadata block, a multiple of 8
	linkOff uint64   // block offset of the per-way (next, prev) link pairs

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

	// lo and hi bound the line IDs the miss path has allocated since
	// Reset (lo > hi while it has allocated none). Only the miss path
	// makes a way valid, so no line outside [lo, hi] can be present, and
	// invalidate returns without probing for one: a non-temporal store
	// to an array the kernel never reads costs no set probe.
	lo, hi uint64

	// What SelfFlushed reads, all since Reset: a bitmap of the sets
	// that evicted a line, how many sets a line entered empty, each
	// stream slot's first line on the L1-tracked path (first, valid
	// per bit of firstSet) and how many invalidates dropped a line.
	evicted  []uint64
	filled   int
	first    [8]uint64
	firstSet uint8
	dropped  uint64
}

// Metadata block layout, in bytes: the MRU and LRU way, padding to
// metaFP, ceil(Ways/8) fingerprint words (way i in byte metaFP+i, the
// pad bytes of the last word unused), then one (next, prev) link pair
// per way from Cache.linkOff. Ways <= 64 fits every way index in a byte.
const (
	metaMRU = 0 // most recently used way
	metaLRU = 1 // least recently used way
	metaFP  = 8
)

// New builds a cache, panicking on invalid configuration (configurations
// are compile-time constants of the device packages).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, sets: cfg.Sets(), ways: cfg.Ways}
	c.lineShift = mem.Log2(uint64(cfg.LineBytes))
	c.setsMask = c.sets - 1
	c.linkOff = metaFP + 8*uint64((cfg.Ways+7)/8)
	c.stride = (c.linkOff + 2*uint64(cfg.Ways) + 7) &^ 7
	c.tags = make([]uint64, c.sets*uint64(cfg.Ways))
	c.meta = make([]byte, c.sets*c.stride)
	c.valid = make([]uint64, c.sets)
	c.dirty = make([]uint64, c.sets)
	c.evicted = make([]uint64, (c.sets+63)/64)
	c.lo = math.MaxUint64
	return c
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset restores cold state and clears statistics.
func (c *Cache) Reset() {
	clear(c.valid) // the valid masks alone say what the sets hold
	clear(c.dirty)
	c.stats = Stats{}
	c.lastLine = [8]uint64{}
	c.lastValid = [8]bool{}
	c.wcLine = [8]uint64{}
	c.wcBytes = [8]uint32{}
	c.wcValid = [8]bool{}
	c.lo, c.hi = math.MaxUint64, 0
	clear(c.evicted)
	c.filled, c.firstSet, c.dropped = 0, 0, 0
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
		if c.lastValid[slot] {
			if c.lastLine[slot] == lineID {
				c.stats.Hits++
				continue
			}
		} else {
			c.first[slot] = lineID
			c.firstSet |= 1 << slot
		}
		c.lastLine[slot], c.lastValid[slot] = lineID, true

		set := c.setIndex(lineID)
		base := set * uint64(c.ways)
		m := c.block(set)
		vmask := c.valid[set]
		if i := c.probe(m, vmask, base, lineID); i >= 0 {
			c.stats.Hits++
			c.stats.L1Transfers++
			c.toMRU(m, uint8(i))
			if r.Op == mem.Write {
				c.dirty[set] |= 1 << uint(i)
			}
			continue
		}

		// Miss: pick the victim. The first invalid way past index 0 wins
		// outright; with every way past 0 valid, an invalid way 0 wins,
		// and a full set gives up its least recently used way — the
		// replacement order of the reference implementation.
		c.stats.Misses++
		victim := uint8(0)
		full := false
		if inv := ^vmask & (^uint64(0) >> (64 - uint(c.ways))); inv>>1 != 0 {
			victim = uint8(bits.TrailingZeros64(inv>>1) + 1)
		} else if vmask&1 != 0 {
			victim, full = m[metaLRU], true
		}
		vbit := uint64(1) << victim
		if full && c.dirty[set]&vbit != 0 {
			c.stats.Writebacks++
			out = append(out, mem.Request{
				Addr:   c.tags[base+uint64(victim)] << c.lineShift,
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
		c.tags[base+uint64(victim)] = lineID
		c.lo, c.hi = min(c.lo, lineID), max(c.hi, lineID)
		m[metaFP+uint64(victim)] = fingerprint(lineID)
		if full {
			c.rotate(m, victim)
			c.evicted[set>>6] |= 1 << (set & 63)
		} else {
			if vmask == 0 {
				c.filled++
			}
			c.push(m, victim, vmask == 0)
			c.valid[set] = vmask | vbit
		}
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

// pendingWC emits what FlushWC would, but leaves the buffers open: it
// flushes a copy of them.
func (c *Cache) pendingWC(out []mem.Request) []mem.Request {
	valid := c.wcValid
	out = c.FlushWC(out)
	c.wcValid = valid
	return out
}

// invalidate drops a line if present (without writeback: used by
// non-temporal stores which overwrite the whole line). The dropped way
// leaves the valid mask and the recency list; its stale tag,
// fingerprint and links stay behind, untrusted. A line outside the
// allocated range [lo, hi] cannot be present and is not probed for.
func (c *Cache) invalidate(lineID uint64) {
	if lineID < c.lo || lineID > c.hi {
		return
	}
	set := c.setIndex(lineID)
	m := c.block(set)
	vmask, base := c.valid[set], set*uint64(c.ways)
	i := c.probe(m, vmask, base, lineID)
	if i < 0 {
		return
	}
	bit := uint64(1) << uint(i)
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
	c.unlink(m, uint8(i))
	c.dropped++
}

// SelfFlushed reports whether the accesses since Reset, presented again
// to the cache as they left it, would make the same memory-side
// requests and add the same statistics, and leave the same lines, clean,
// in the same recency order per set (only way indices may differ, and
// nothing reads them). The accesses must probe no line twice, as a
// contiguous walk of disjoint arrays with one stream tag each does; the
// cache cannot check that. The other conditions it checks:
//
//   - no probe hit, no writeback and no invalidate that found its line,
//     so every access missed and inserted, clean, or bypassed;
//   - no write-combining buffer is open;
//   - no stream slot's first L1-tracked line is the one its tracking
//     holds now, which would make the repeat's first access an L1 hit;
//   - every set that holds a line evicted at least once, and no line is
//     dirty.
//
// Then each set holds the last Ways lines inserted into it, at the LRU
// end of the repeat, and each is evicted by an insertion that comes
// before its only access: every access meets what it met the first
// time. The statistics checks come first and the eviction bitmap's
// count next, so the dirty scan runs only after accesses that evicted
// in every set they touched.
func (c *Cache) SelfFlushed() bool {
	s := c.stats
	if s.L1Transfers != s.Fills+s.Validates || s.Writebacks != 0 || c.dropped != 0 {
		return false
	}
	for slot, open := range c.wcValid {
		if open || c.firstSet>>slot&1 != 0 && c.first[slot] == c.lastLine[slot] {
			return false
		}
	}
	evicted := 0
	for _, w := range c.evicted {
		evicted += bits.OnesCount64(w)
	}
	if evicted != c.filled {
		return false
	}
	for _, d := range c.dirty {
		if d != 0 {
			return false
		}
	}
	return true
}

// block returns a set's metadata block.
func (c *Cache) block(set uint64) []byte {
	off := set * c.stride
	return c.meta[off : off+c.stride]
}

// Fingerprint probe constants: a multiplicative hash whose top byte
// mixes every tag bit (the set index reuses the low bits, so a low-byte
// fingerprint would repeat within a set), and the per-byte SWAR masks.
const (
	fpMul  = 0x9E3779B97F4A7C15
	bytes1 = 0x0101010101010101
	low7   = 0x7F7F7F7F7F7F7F7F
)

// scanWays is the most valid ways a probe compares tag by tag: up to
// four compares cost no more than the SWAR pass over a 20- or 24-way
// set's three fingerprint words, measured on the LLC and L2 geometries.
const scanWays = 4

// fingerprint is the 8-bit tag summary stored per way.
func fingerprint(lineID uint64) uint8 { return uint8((lineID * fpMul) >> 56) }

// scan returns the valid way of the set holding lineID, or -1, by
// comparing the valid ways' tags.
func (c *Cache) scan(vmask, base, lineID uint64) int {
	for ; vmask != 0; vmask &= vmask - 1 {
		if i := bits.TrailingZeros64(vmask); c.tags[base+uint64(i)] == lineID {
			return i
		}
	}
	return -1
}

// probe returns the valid way of the set holding lineID, or -1. Past
// scanWays valid ways, each packed fingerprint word yields its matching
// bytes in one SWAR step, and only those candidates are checked against
// the valid mask and the full tag.
func (c *Cache) probe(m []byte, vmask, base, lineID uint64) int {
	if bits.OnesCount64(vmask) <= scanWays {
		return c.scan(vmask, base, lineID)
	}
	pat := uint64(fingerprint(lineID)) * bytes1
	for w := uint64(0); metaFP+w < c.linkOff; w += 8 {
		x := binary.LittleEndian.Uint64(m[metaFP+w:]) ^ pat
		// High bit of each byte of x that is zero; exact, with no
		// borrow between bytes.
		for hit := ^((x&low7 + low7) | x | low7); hit != 0; hit &= hit - 1 {
			i := w + uint64(bits.TrailingZeros64(hit)>>3)
			if vmask>>i&1 != 0 && c.tags[base+i] == lineID {
				return int(i)
			}
		}
	}
	return -1
}

// Each set's valid ways form a ring: next links run from the MRU way
// toward the LRU way and wrap from it to the MRU way, prev links the
// other way. The ring makes the list tail's move to the MRU end — a hit
// on the LRU way, every full set's victim — a rotation.

// nextAt and prevAt are the block offsets of way w's links.
func (c *Cache) nextAt(w uint8) uint64 { return c.linkOff + 2*uint64(w) }
func (c *Cache) prevAt(w uint8) uint64 { return c.linkOff + 2*uint64(w) + 1 }

// rotate moves the LRU way w to the MRU end.
func (c *Cache) rotate(m []byte, w uint8) {
	m[metaMRU] = w
	m[metaLRU] = m[c.prevAt(w)]
}

// toMRU moves a valid way to the MRU end; the LRU way's move is a
// rotation.
func (c *Cache) toMRU(m []byte, w uint8) {
	switch w {
	case m[metaMRU]:
	case m[metaLRU]:
		c.rotate(m, w)
	default:
		c.unlink(m, w)
		c.push(m, w, false)
	}
}

// push links a way not on the ring at its MRU end; empty says the ring
// holds no way.
func (c *Cache) push(m []byte, w uint8, empty bool) {
	if empty {
		m[c.nextAt(w)], m[c.prevAt(w)] = w, w
		m[metaLRU] = w
	} else {
		mru, lru := m[metaMRU], m[metaLRU]
		m[c.nextAt(w)], m[c.prevAt(w)] = mru, lru
		m[c.prevAt(mru)], m[c.nextAt(lru)] = w, w
	}
	m[metaMRU] = w
}

// unlink removes a way from the ring. Removing the last way leaves stale
// ends, unread until a way is pushed onto the empty ring.
func (c *Cache) unlink(m []byte, w uint8) {
	next, prev := m[c.nextAt(w)], m[c.prevAt(w)]
	m[c.nextAt(prev)], m[c.prevAt(next)] = next, prev
	if m[metaMRU] == w {
		m[metaMRU] = next
	}
	if m[metaLRU] == w {
		m[metaLRU] = prev
	}
}

// MissFilter adapts a Cache into a mem.Source transformer: it pulls from
// an upstream source, services each request against the cache, and yields
// only the memory-side traffic. Feed it to a dram.Model to time the
// hierarchy below the cache.
//
// A MissFilter passes a pause of its upstream through: when a mem.Pauser
// upstream pauses, the filter yields the traffic queued before the pause
// and then pauses itself, leaving its write-combining buffers open.
type MissFilter struct {
	cache   *Cache
	src     mem.Source
	queue   []mem.Request
	qHead   int
	flushed bool

	// Upstream prefetch buffer (created on the first NextBatch call):
	// requests are pulled a batch at a time so the generator chain above
	// runs its own batched paths.
	in    []mem.Request
	inPos int
	inLen int

	upstream mem.Pauser    // src, when it can pause; nil otherwise
	paused   bool          // the upstream paused and every request before it was yielded
	tail     requestSource // what Resume hands back
}

// missFilterBatch is the upstream prefetch depth.
const missFilterBatch = 128

// NewMissFilter wraps src with the cache.
func NewMissFilter(c *Cache, src mem.Source) *MissFilter {
	f := &MissFilter{cache: c, src: src}
	f.upstream, _ = src.(mem.Pauser)
	return f
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
			f.inLen = f.src.NextBatch(f.in)
			f.inPos = 0
			if f.inLen == 0 {
				if f.upstream != nil && f.upstream.Paused() {
					f.paused = true // a pause is not the end: no flush
					break
				}
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

// Paused implements mem.Pauser: the upstream paused and the filter has
// yielded everything before the pause.
func (f *MissFilter) Paused() bool { return f.paused }

// Resume implements mem.Pauser. It returns a flush of a copy of the
// write-combining buffers, which is how the filter would have ended had
// its upstream ended at the pause, and resumes the upstream; the
// buffers stay open, so the resumed stream goes on combining into them.
// The upstream's own pause must end its stream (a nil Resume): the
// filter cannot replay requests past the pause without copying the
// cache.
func (f *MissFilter) Resume() mem.Source {
	f.paused = false
	if f.upstream.Resume() != nil {
		panic("cache: a MissFilter's upstream must end at its pause")
	}
	f.tail.reqs = f.cache.pendingWC(f.tail.reqs[:0])
	return &f.tail
}

// requestSource yields a fixed list of requests.
type requestSource struct{ reqs []mem.Request }

// NextBatch implements mem.Source.
func (s *requestSource) NextBatch(dst []mem.Request) int {
	n := copy(dst, s.reqs)
	s.reqs = s.reqs[n:]
	return n
}
