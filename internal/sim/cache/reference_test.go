package cache

// refCache is the frozen pre-optimization cache: array-of-structs ways,
// two-pass probe/victim scans over LRU stamps. The live Cache replaced
// both scans with a fingerprint probe and per-set recency lists; the
// parity tests in parity_test.go and FuzzAccess hold the two
// implementations to identical emitted traffic and statistics, request
// for request.

import (
	"mpstream/internal/sim/mem"
)

type refWay struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

type refCache struct {
	cfg   Config
	sets  uint64
	ways  [][]refWay
	tick  uint64
	stats Stats

	lineShift uint
	setsMask  uint64

	lastLine  [8]uint64
	lastValid [8]bool

	wcLine  [8]uint64
	wcBytes [8]uint32
	wcValid [8]bool
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &refCache{cfg: cfg, sets: cfg.Sets()}
	c.lineShift = mem.Log2(uint64(cfg.LineBytes))
	c.setsMask = c.sets - 1
	c.ways = make([][]refWay, c.sets)
	for i := range c.ways {
		c.ways[i] = make([]refWay, cfg.Ways)
	}
	return c
}

func (c *refCache) setIndex(lineID uint64) uint64 {
	if c.cfg.HashSets {
		h := lineID ^ lineID>>11 ^ lineID>>23
		return h & c.setsMask
	}
	return lineID & c.setsMask
}

func (c *refCache) access(r mem.Request, out []mem.Request) []mem.Request {
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

		if c.lastValid[slot] && c.lastLine[slot] == lineID {
			c.stats.Hits++
			continue
		}
		c.lastLine[slot], c.lastValid[slot] = lineID, true

		set := c.setIndex(lineID)
		ws := c.ways[set]
		c.tick++

		hitIdx := -1
		for i := range ws {
			if ws[i].valid && ws[i].tag == lineID {
				hitIdx = i
				break
			}
		}
		if hitIdx >= 0 {
			c.stats.Hits++
			c.stats.L1Transfers++
			ws[hitIdx].used = c.tick
			if r.Op == mem.Write {
				ws[hitIdx].dirty = true
			}
			continue
		}

		c.stats.Misses++
		victim := 0
		for i := 1; i < len(ws); i++ {
			if !ws[i].valid {
				victim = i
				break
			}
			if ws[i].used < ws[victim].used {
				victim = i
			}
		}
		if ws[victim].valid && ws[victim].dirty {
			c.stats.Writebacks++
			out = append(out, mem.Request{
				Addr:   ws[victim].tag << c.lineShift,
				Size:   uint32(line),
				Op:     mem.Write,
				Stream: r.Stream,
			})
		}
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
		ws[victim] = refWay{tag: lineID, valid: true, dirty: r.Op == mem.Write, used: c.tick}
	}
	return out
}

func (c *refCache) flushWCSlot(slot int, stream uint8, out []mem.Request) []mem.Request {
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

func (c *refCache) flushWC(out []mem.Request) []mem.Request {
	for slot := range c.wcLine {
		out = c.flushWCSlot(slot, uint8(slot), out)
	}
	return out
}

func (c *refCache) invalidate(lineID uint64) {
	set := c.setIndex(lineID)
	ws := c.ways[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == lineID {
			ws[i] = refWay{}
			return
		}
	}
}
