package cache

// FuzzAccess decodes arbitrary bytes into a valid cache configuration
// and a request stream, with a Reset part-way through, and holds the live
// Cache to the frozen reference (reference_test.go): every emitted
// request, every write-combining flush and the statistics must match,
// before the Reset against one reference and after it against a fresh
// one.
//
// Run with: go test -fuzz FuzzAccess ./internal/sim/cache; the f.Add
// seeds below run on every plain `go test`.

import (
	"fmt"
	"testing"

	"mpstream/internal/sim/mem"
)

// fuzzHeader is the number of configuration bytes before the requests.
const fuzzHeader = 5

// decodeFuzzConfig maps five bytes onto a configuration Validate
// accepts: 1–64 ways, 1–64 sets, 16–128-byte lines and any combination
// of the three policy flags.
func decodeFuzzConfig(b []byte) Config {
	ways := 1 + int(b[0]%64)
	sets := uint64(1) << (b[1] % 7)
	line := uint32(1) << (4 + b[2]%4)
	return Config{
		Name:              "fuzz",
		CapacityBytes:     sets * uint64(ways) * uint64(line),
		LineBytes:         line,
		Ways:              ways,
		NonTemporalWrites: b[3]&1 != 0,
		WriteValidate:     b[3]&2 != 0,
		HashSets:          b[3]&4 != 0,
	}
}

// decodeFuzzRequests turns each four bytes into one request over about
// twice the cache's capacity in lines, so sets fill, evict and re-hit.
// The first byte picks op, stream, size class and a far address region
// (which the hashed set index folds back onto the same sets); the next
// two pick the line; the last the byte offset within it.
func decodeFuzzRequests(cfg Config, b []byte) []mem.Request {
	line := uint64(cfg.LineBytes)
	span := 2*cfg.Sets()*uint64(cfg.Ways) + 8
	sizes := [8]uint32{0, 1, 4, 8, uint32(line / 2), uint32(line), uint32(2 * line), uint32(3 * line)}
	reqs := make([]mem.Request, 0, len(b)/4)
	for ; len(b) >= 4; b = b[4:] {
		lineIdx := (uint64(b[1])<<8 | uint64(b[2])) % span
		if b[0]&0x80 != 0 {
			lineIdx += 1 << 20
		}
		r := mem.Request{
			Addr:   lineIdx*line + uint64(b[3])%line,
			Size:   sizes[b[0]>>3&7],
			Op:     mem.Read,
			Stream: b[0] >> 1 & 3,
		}
		if b[0]&1 != 0 {
			r.Op = mem.Write
		}
		reqs = append(reqs, r)
	}
	return reqs
}

func FuzzAccess(f *testing.F) {
	f.Add([]byte{23, 3, 1, 4, 128, 0x28, 0, 1, 0, 0x29, 0, 1, 0, 0x28, 0, 2, 0, 0x28, 0, 1, 0})
	f.Add([]byte{63, 2, 2, 1, 60, 0x29, 0, 5, 3, 0x28, 0, 5, 0, 0x29, 0, 5, 7, 0x28, 0, 5, 0, 0x30, 1, 0, 9})
	f.Add([]byte{0, 0, 0, 2, 200, 0x21, 0, 0, 0, 0x20, 0, 1, 0, 0x20, 0, 0, 0, 0xa0, 0, 0, 0})
	f.Add([]byte{19, 4, 3, 7, 255, 0x38, 0xff, 0xff, 1, 0x39, 0, 7, 2, 0x2a, 0, 9, 0, 0x2c, 0, 7, 0})
	// Non-temporal stores to a held line (then read again from another
	// stream), to lines just outside the allocated range, and, after a
	// Reset, to a line the cache allocated only before it.
	f.Add([]byte{3, 2, 2, 1, 255, 0x28, 0, 5, 0, 0x29, 0, 5, 0, 0x2a, 0, 5, 0, 0x28, 0, 7, 0,
		0x29, 0, 6, 0, 0x29, 0, 8, 0, 0x2c, 0, 7, 0, 0x29, 0, 7, 0, 0x2a, 0, 7, 0})
	f.Add([]byte{7, 3, 0, 5, 128, 0xa8, 0, 100, 0, 0x28, 0, 3, 0, 0x29, 0, 3, 0, 0x2a, 0, 3, 0,
		0x28, 0, 100, 0, 0xa9, 0, 100, 0, 0x29, 0, 3, 0, 0x2c, 0, 3, 0, 0x2a, 0, 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		cfg := decodeFuzzConfig(data)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded config %+v rejected: %v", cfg, err)
		}
		reqs := decodeFuzzRequests(cfg, data[fuzzHeader:])
		cut := int(data[4]) * len(reqs) / 256
		live := New(cfg)
		label := fmt.Sprintf("cfg %+v", cfg)
		replayParity(t, label+" before Reset", live, newRefCache(cfg), reqs[:cut])
		live.Reset()
		replayParity(t, label+" after Reset", live, newRefCache(cfg), reqs[cut:])
	})
}
