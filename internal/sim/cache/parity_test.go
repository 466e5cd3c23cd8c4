package cache

// Parity: the live Cache must reproduce the frozen array-of-structs
// reference (reference_test.go) exactly — every emitted memory-side
// request and every statistic — across randomized configurations and
// request streams.

import (
	"fmt"
	"math/rand"
	"testing"

	"mpstream/internal/sim/mem"
)

func randomCacheConfig(rng *rand.Rand) Config {
	ways := 1 + rng.Intn(64)
	sets := uint64(1) << (2 + rng.Intn(6))
	line := uint32(1) << (4 + rng.Intn(3))
	cfg := Config{
		Name:          "parity",
		LineBytes:     line,
		Ways:          ways,
		CapacityBytes: sets * uint64(ways) * uint64(line),
		HashSets:      rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0:
		cfg.NonTemporalWrites = true
	case 1:
		cfg.WriteValidate = true
	}
	return cfg
}

// randomRequests draws a stream mixing contiguous runs, strides, random
// scatter, line-straddling sizes, and both ops across a few streams.
func randomRequests(rng *rand.Rand, line uint32, n int) []mem.Request {
	reqs := make([]mem.Request, 0, n)
	for len(reqs) < n {
		stream := uint8(rng.Intn(3))
		op := mem.Read
		if rng.Intn(2) == 0 {
			op = mem.Write
		}
		base := uint64(stream)<<31 + uint64(rng.Intn(1<<20))
		switch rng.Intn(4) {
		case 0: // contiguous word run
			size := uint32(4 << rng.Intn(2))
			for i := 0; i < 32 && len(reqs) < n; i++ {
				reqs = append(reqs, mem.Request{Addr: base + uint64(i)*uint64(size), Size: size, Op: op, Stream: stream})
			}
		case 1: // strided walk
			stride := uint64(line) * uint64(1+rng.Intn(8))
			for i := 0; i < 32 && len(reqs) < n; i++ {
				reqs = append(reqs, mem.Request{Addr: base + uint64(i)*stride, Size: 8, Op: op, Stream: stream})
			}
		case 2: // scatter
			reqs = append(reqs, mem.Request{Addr: base, Size: 8, Op: op, Stream: stream})
		default: // multi-line request, possibly line-straddling
			reqs = append(reqs, mem.Request{
				Addr: base, Size: line * uint32(1+rng.Intn(4)), Op: op, Stream: stream,
			})
		}
	}
	return reqs
}

// parity presents the same requests to the live cache and the
// reference and fails on the first emitted request, flush or statistic
// that differs.
type parity struct {
	t         *testing.T
	label     string
	live      *Cache
	ref       *refCache
	got, want []mem.Request
}

func (p *parity) access(i int, r mem.Request) {
	p.t.Helper()
	p.got = p.live.Access(r, p.got[:0])
	p.want = p.ref.access(r, p.want[:0])
	p.same(fmt.Sprintf("request %d %+v", i, r))
}

// finish flushes both caches' write-combining buffers and compares the
// flushes and the statistics.
func (p *parity) finish() {
	p.t.Helper()
	p.got = p.live.FlushWC(p.got[:0])
	p.want = p.ref.flushWC(p.want[:0])
	p.same("flush")
	if p.live.Stats() != p.ref.stats {
		p.t.Fatalf("%s: stats diverged:\n live %+v\n ref  %+v", p.label, p.live.Stats(), p.ref.stats)
	}
}

func (p *parity) same(what string) {
	p.t.Helper()
	if len(p.got) != len(p.want) {
		p.t.Fatalf("%s %s: live emitted %d requests, reference %d", p.label, what, len(p.got), len(p.want))
	}
	for j := range p.want {
		if p.got[j] != p.want[j] {
			p.t.Fatalf("%s %s: output %d diverged: live %+v reference %+v",
				p.label, what, j, p.got[j], p.want[j])
		}
	}
}

// replayParity runs reqs through both caches, then finishes.
func replayParity(t *testing.T, label string, live *Cache, ref *refCache, reqs []mem.Request) {
	t.Helper()
	p := &parity{t: t, label: label, live: live, ref: ref}
	for i, r := range reqs {
		p.access(i, r)
	}
	p.finish()
}

func TestAccessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		cfg := randomCacheConfig(rng)
		reqs := randomRequests(rng, cfg.LineBytes, 2000)
		replayParity(t, fmt.Sprintf("trial %d (cfg %+v)", trial, cfg), New(cfg), newRefCache(cfg), reqs)
	}
}

// TestAccessMatchesReferenceAfterReset checks Reset really restores the
// cold state: a post-Reset replay must equal a fresh pair.
func TestAccessMatchesReferenceAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := randomCacheConfig(rng)
	live := New(cfg)
	reqs := randomRequests(rng, cfg.LineBytes, 3000)
	var got []mem.Request
	for _, r := range reqs {
		got = live.Access(r, got[:0])
	}
	live.Reset()
	replayParity(t, "after Reset", live, newRefCache(cfg), reqs)
}

// streamingRequests walks four times the cache's capacity in fresh
// lines, one line per request, so sets run full and give up their LRU
// ways. Among the fresh lines it re-touches lines from the last half
// capacity, most still resident, which moves ways out of LRU order, and
// writes lines from that window: under NonTemporalWrites each such write
// invalidates its line, leaving a hole the stream refills.
func streamingRequests(rng *rand.Rand, cfg Config) []mem.Request {
	line := uint64(cfg.LineBytes)
	window := cfg.Sets() * uint64(cfg.Ways) / 2
	var reqs []mem.Request
	for next := uint64(0); next < 8*window; {
		r := mem.Request{Size: uint32(line), Op: mem.Read, Stream: uint8(rng.Intn(3))}
		switch k := rng.Intn(8); {
		case k < 5 || next == 0:
			r.Addr = next * line
			next++
		case k < 7:
			r.Addr = (next - 1 - uint64(rng.Int63n(int64(min(next, window))))) * line
			if rng.Intn(4) == 0 {
				r.Op = mem.Write
			}
		default:
			r.Addr = (next - 1 - uint64(rng.Int63n(int64(min(next, window))))) * line
			r.Op = mem.Write
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestAccessMatchesReferenceStreaming holds the recency list to the
// reference's LRU stamps where they matter: evictions from full sets,
// refills of holes that invalidation left below a valid way, and misses
// on sets whose only invalid way is way 0. It classifies every miss from
// the reference's own set state and requires each case to occur.
func TestAccessMatchesReferenceStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		cfg := randomCacheConfig(rng)
		cfg.NonTemporalWrites = trial%2 == 0
		p := &parity{t: t, label: fmt.Sprintf("streaming trial %d (cfg %+v)", trial, cfg), live: New(cfg), ref: newRefCache(cfg)}
		for i, r := range streamingRequests(rng, cfg) {
			ws := p.ref.ways[p.ref.setIndex(r.Addr>>p.ref.lineShift)]
			misses := p.ref.stats.Misses
			p.access(i, r)
			if p.ref.stats.Misses != misses {
				cases[missCase(ws)]++
			}
		}
		p.finish()
	}
	for _, c := range []string{"full set", "hole", "only way 0 invalid"} {
		if cases[c] == 0 {
			t.Errorf("no miss met case %q; counts %v", c, cases)
		}
	}
}

// missCase names the state of the reference set a miss met, before the
// miss changed it.
func missCase(ws []refWay) string {
	invalid, first, lastValid := 0, -1, -1
	for i, w := range ws {
		if w.valid {
			lastValid = i
			continue
		}
		invalid++
		if first < 0 {
			first = i
		}
	}
	switch {
	case invalid == 0:
		return "full set"
	case invalid == 1 && first == 0 && len(ws) > 1:
		return "only way 0 invalid"
	case first > 0 && first < lastValid:
		return "hole"
	}
	return "other"
}
