package dram

// Parity tests: the optimized service paths must reproduce the frozen
// reference implementations (reference_test.go) exactly — every float
// and every counter — across a randomized sweep of configurations and
// request streams. This is the per-package proof backing the repo-level
// golden digests: the goldens pin whole results, these tests pin the
// service paths in isolation with far denser configuration coverage.

import (
	"math/rand"
	"testing"

	"mpstream/internal/sim/mem"
)

// randomConfig draws a valid configuration exercising the model's
// geometry and policy space, plus the completion-ring depth (1–32) the
// frozen references simulate: the live controller has no such ring, and
// drawing its depth keeps the proof that it never binds under test.
func randomConfig(rng *rand.Rand) (Config, int) {
	pow2 := func(lo, hi int) uint32 { return 1 << (lo + rng.Intn(hi-lo+1)) }
	cfg := Config{
		Name:            "parity",
		Channels:        1 + rng.Intn(4),
		BanksPerChannel: 1 << rng.Intn(4),
		RowBytes:        pow2(9, 12), // 512 B .. 4 KiB
		BurstBytes:      pow2(4, 7),  // 16 B .. 128 B
		BusGBps:         1 + 30*rng.Float64(),
		RowMissNs:       20 * rng.Float64(),
		TurnaroundNs:    10 * rng.Float64(),
		BatchSize:       1 << rng.Intn(5),
	}
	ring := 1 + rng.Intn(32)
	cfg.RefreshLoss = 0.05 * rng.Float64()
	if rng.Intn(2) == 0 {
		cfg.InterleaveBytes = pow2(6, 10)
		cfg.HashChannels = rng.Intn(2) == 0
	}
	cfg.HashBanks = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		cfg.ActWindowNs = 10 + 30*rng.Float64()
		cfg.ActsPerWindow = 1 + rng.Intn(4)
	}
	if rng.Intn(2) == 0 {
		cfg.InitialLatencyNs = 100 * rng.Float64()
	}
	return cfg, ring
}

// randomStream builds a request source mixing the real generator types;
// build returns a fresh identical stream on every call so the live and
// reference paths each consume their own.
func randomStream(rng *rand.Rand, burst uint32) func() mem.Source {
	kind := rng.Intn(4)
	elems := 64 + rng.Intn(2048)
	stride := 1 + rng.Intn(32)
	readFrac := rng.Float64()
	hops := 32 + rng.Intn(512)
	seedElems := elems // captured: identical streams per call
	switch kind {
	case 0: // interleaved contiguous read/write pair (copy-shaped)
		return func() mem.Source { return copyWalk(seedElems, burst) }
	case 1: // coalesced strided reads
		return func() mem.Source {
			w, _ := mem.NewKernelWalk(mem.StridedPattern(stride), seedElems, 4, burst,
				mem.Array{Base: 0, Op: mem.Read, Stream: 1})
			return w
		}
	case 2: // error-diffusion read/write mix
		return func() mem.Source {
			r, _ := mem.NewIter(mem.ContiguousPattern(), 0, seedElems, burst, mem.Read, 1)
			w, _ := mem.NewIter(mem.ContiguousPattern(), 1<<31, seedElems, burst, mem.Write, 0)
			return mem.NewMix(r, w, readFrac, 0)
		}
	default: // pointer chase
		return func() mem.Source {
			c, _ := mem.NewChaseIter(3<<31, seedElems, burst, hops, 3)
			return c
		}
	}
}

// copyWalk is a copy kernel's contiguous walk of burst-sized elements:
// reads of b at 0 interleaved with writes of a at 2 GiB.
func copyWalk(elems int, burst uint32) mem.Source {
	w, _ := mem.NewKernelWalk(mem.ContiguousPattern(), elems, burst, burst,
		mem.Array{Base: 0, Op: mem.Read, Stream: 1}, mem.Array{Base: 1 << 31, Op: mem.Write, Stream: 0})
	return w
}

func TestServiceBoundedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cfg, ring := randomConfig(rng)
		build := randomStream(rng, cfg.BurstBytes)
		var maxTxns uint64
		if rng.Intn(2) == 0 {
			maxTxns = uint64(1 + rng.Intn(512))
		}
		m := New(cfg)
		got := m.ServiceBounded(build(), maxTxns)
		want := refServiceBounded(m, build(), maxTxns, ring)
		if got != want {
			t.Fatalf("trial %d (cfg %+v, ring %d, maxTxns %d):\n got  %+v\n want %+v",
				trial, m.Config(), ring, maxTxns, got, want)
		}
		// The live decoder's strength-reduced router must agree with
		// the reference router on every request of the stream.
		src := build()
		for r, ok := pull(src); ok; r, ok = pull(src) {
			refCh, _ := refRoute(m.cfg, r.Addr, r.Stream)
			if ch := routedChannel(m, r); ch != refCh {
				t.Fatalf("trial %d (cfg %+v): request %+v routed to channel %d, reference %d",
					trial, m.Config(), r, ch, refCh)
			}
		}
	}

	// The bound's edge: streams long enough to cross several 1024-request
	// issue chunks, run unbounded, bounded mid-stream, and with maxTxns
	// just below, at and just past their transaction count. Drained and
	// the source's read-ahead must match the reference at each.
	for trial := 0; trial < 8; trial++ {
		cfg, ring := randomConfig(rng)
		elems := 2048 + rng.Intn(2048)
		readFrac := rng.Float64()
		mix := rng.Intn(2) == 0
		build := func() mem.Source {
			if !mix {
				return copyWalk(elems, cfg.BurstBytes)
			}
			r, _ := mem.NewIter(mem.ContiguousPattern(), 0, elems, cfg.BurstBytes, mem.Read, 1)
			w, _ := mem.NewIter(mem.ContiguousPattern(), 1<<31, elems, cfg.BurstBytes, mem.Write, 0)
			return mem.NewMix(r, w, readFrac, 0)
		}
		m := New(cfg)
		total := refServiceBounded(m, build(), 0, ring).Txns
		for _, maxTxns := range []uint64{0, total / 2, total - 1, total, total + 1} {
			src, refSrc := build(), build()
			got := m.ServiceBounded(src, maxTxns)
			want := refServiceBounded(m, refSrc, maxTxns, ring)
			if got != want {
				t.Fatalf("edge trial %d (cfg %+v, ring %d, total %d, maxTxns %d):\n got  %+v\n want %+v",
					trial, m.Config(), ring, total, maxTxns, got, want)
			}
			if got, want := unread(src), unread(refSrc); got != want {
				t.Fatalf("edge trial %d (total %d, maxTxns %d): %d requests left unread, reference %d",
					trial, total, maxTxns, got, want)
			}
		}
	}
}

func TestServiceBoundedArenaReuseMatchesReference(t *testing.T) {
	// Back-to-back runs on one model reuse the arena; every run must
	// still start cold.
	rng := rand.New(rand.NewSource(11))
	cfg, ring := randomConfig(rng)
	m := New(cfg)
	build := randomStream(rng, cfg.BurstBytes)
	want := refServiceBounded(m, build(), 0, ring)
	for run := 0; run < 3; run++ {
		if got := m.ServiceBounded(build(), 0); got != want {
			t.Fatalf("run %d diverged after arena reuse:\n got  %+v\n want %+v", run, got, want)
		}
	}
}

// TestServiceLoadedRoutedMatchesReference is the open-loop parity test:
// Preroute + ServiceLoadedRouted must reproduce the frozen reference
// float for float, and a rewound or recycled stream must replay
// identically. The surface sweep leans on
// exactly these three properties.
func TestServiceLoadedRoutedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var scratch *Prerouted // recycled across trials, like the surface sweep's
	for trial := 0; trial < 200; trial++ {
		cfg, ring := randomConfig(rng)
		bgBuild := randomStream(rng, cfg.BurstBytes)
		hops := 32 + rng.Intn(256)
		elems := 64 + rng.Intn(1024)
		probeBuild := func() mem.Source {
			c, _ := mem.NewChaseIter(3<<31, elems, cfg.BurstBytes, hops, 3)
			return c
		}
		opts := LoadedOptions{
			InterArrivalNs: 5 * rng.Float64(),
			MaxTxns:        uint64(rng.Intn(1024)),
			WarmupTxns:     uint64(rng.Intn(64)),
		}
		const drain = 1 << 16 // larger than any stream above
		m := New(cfg)
		var bg, pr *Prerouted
		var bgRef, prRef mem.Source
		switch rng.Intn(3) {
		case 0: // background only
			bg, bgRef = m.Preroute(bgBuild(), drain), bgBuild()
		case 1: // probe only
			pr, prRef = m.Preroute(probeBuild(), drain), probeBuild()
		default: // both
			bg, bgRef = m.Preroute(bgBuild(), drain), bgBuild()
			pr, prRef = m.Preroute(probeBuild(), drain), probeBuild()
		}
		got := m.ServiceLoadedRouted(bg, pr, opts)
		want := refServiceLoaded(m, bgRef, prRef, opts, ring)
		if got != want {
			t.Fatalf("trial %d (cfg %+v, ring %d, opts %+v):\n got  %+v\n want %+v",
				trial, m.Config(), ring, opts, got, want)
		}
		// A rewound stream must replay the run exactly, and a stream
		// decoded into a recycled backing array must match a fresh one.
		if bg != nil {
			bg.Reset()
			scratch = m.PrerouteInto(scratch, bgBuild(), drain)
			if len(scratch.reqs) != len(bg.reqs) {
				t.Fatalf("trial %d: recycled preroute length %d, fresh %d",
					trial, len(scratch.reqs), len(bg.reqs))
			}
			for i := range scratch.reqs {
				if scratch.reqs[i] != bg.reqs[i] {
					t.Fatalf("trial %d: recycled preroute diverges at %d: %+v vs %+v",
						trial, i, scratch.reqs[i], bg.reqs[i])
				}
			}
		}
		if pr != nil {
			pr.Reset()
		}
		if again := m.ServiceLoadedRouted(bg, pr, opts); again != got {
			t.Fatalf("trial %d: rewound replay diverged:\n got  %+v\n want %+v",
				trial, again, got)
		}
	}
}

// unread drains src and counts the requests it still held.
func unread(src mem.Source) int {
	var buf [256]mem.Request
	n := 0
	for k := len(buf); k == len(buf); n += k {
		k = mem.Fill(src, buf[:])
	}
	return n
}
