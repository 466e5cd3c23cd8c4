package mem

// Batch parity: every source, across the combinator chains the device
// models actually build (interleave over coalescers over iterators,
// limits, mixes, chases), must emit exactly its frozen reference stream
// (reference_test.go) however the pulls are chunked. Chunk lengths are
// random and often 1, so chunk boundaries land mid-merge, mid-rotation
// and mid-group.

import (
	"math/rand"
	"testing"
)

// drainBatch pulls src dry via Fill with random chunk lengths, a quarter
// of them single requests.
func drainBatch(s Source, rng *rand.Rand) []Request {
	var out []Request
	buf := make([]Request, 97)
	for {
		dst := buf[:1]
		if rng.Intn(4) != 0 {
			dst = buf[:1+rng.Intn(len(buf))]
		}
		n := Fill(s, dst)
		out = append(out, dst[:n]...)
		if n < len(dst) {
			return out
		}
	}
}

// chain is one generator composition: build makes a fresh live source,
// ref the same stream from the reference generators.
type chain struct {
	name  string
	build func() Source
	ref   func() []Request
}

// chainBuilders returns the compositions under parity test, covering
// every Source implementation in the package and both Coalescer merge
// paths (the contiguous-*Iter fast path and the generic loop).
func chainBuilders(rng *rand.Rand) []chain {
	elems := 64 + rng.Intn(1500)
	stride := 1 + rng.Intn(24)
	window := uint32(1 + rng.Intn(160))
	mixFrac := rng.Float64()
	mixGroup := 1 + rng.Intn(32)
	chaseElems := 1 + rng.Intn(3000)
	if rng.Intn(2) == 0 {
		chaseElems = 1 << rng.Intn(12) // the masked power-of-two path
	}
	chaseHops := 200 + rng.Intn(800)
	iter := func(p Pattern, base uint64, n int, eb uint32, op Op, st uint8) Source {
		it, err := NewIter(p, base, n, eb, op, st)
		if err != nil {
			panic(err)
		}
		return it
	}
	walk := func(p Pattern, base uint64, eb uint32, op Op, st uint8) chain {
		return chain{
			build: func() Source { return iter(p, base, elems, eb, op, st) },
			ref:   func() []Request { return refWalk(p, base, elems, eb, op, st) },
		}
	}
	named := func(name string, c chain) chain {
		c.name = name
		return c
	}
	contigR := walk(ContiguousPattern(), 0, 4, Read, 1)
	stridedR := walk(StridedPattern(stride), 0, 4, Read, 1)
	return []chain{
		named("iter-contig", walk(ContiguousPattern(), 0, 8, Read, 1)),
		named("iter-strided", walk(StridedPattern(stride), 0, 4, Write, 0)),
		named("iter-colmajor", walk(ColMajorPattern(), 1<<20, 8, Read, 2)),
		{
			name:  "coalescer-contig",
			build: func() Source { return NewCoalescer(contigR.build(), window) },
			ref:   func() []Request { return refCoalesce(contigR.ref(), window) },
		},
		{
			name:  "coalescer-strided",
			build: func() Source { return NewCoalescer(stridedR.build(), window) },
			ref:   func() []Request { return refCoalesce(stridedR.ref(), window) },
		},
		{
			// A Limit upstream is not an *Iter, so a contiguous walk
			// merges through the generic loop.
			name: "coalescer-generic",
			build: func() Source {
				return NewCoalescer(NewLimit(contigR.build(), elems-3), window)
			},
			ref: func() []Request { return refCoalesce(refLimit(contigR.ref(), elems-3), window) },
		},
		{
			name: "interleave-coalesced",
			build: func() Source {
				return NewInterleave(
					NewCoalescer(iter(ContiguousPattern(), 1<<31, elems, 8, Read, 1), 64),
					NewCoalescer(iter(ContiguousPattern(), 2<<31, elems, 8, Read, 2), 64),
					NewCoalescer(iter(ContiguousPattern(), 0, elems, 8, Write, 0), 64),
				)
			},
			ref: func() []Request {
				return refInterleave(
					refCoalesce(refWalk(ContiguousPattern(), 1<<31, elems, 8, Read, 1), 64),
					refCoalesce(refWalk(ContiguousPattern(), 2<<31, elems, 8, Read, 2), 64),
					refCoalesce(refWalk(ContiguousPattern(), 0, elems, 8, Write, 0), 64),
				)
			},
		},
		{
			name: "interleave-uneven",
			build: func() Source {
				return NewInterleave(
					iter(ContiguousPattern(), 0, elems/3+1, 8, Read, 1),
					iter(StridedPattern(stride), 1<<31, elems, 8, Write, 0),
				)
			},
			ref: func() []Request {
				return refInterleave(
					refWalk(ContiguousPattern(), 0, elems/3+1, 8, Read, 1),
					refWalk(StridedPattern(stride), 1<<31, elems, 8, Write, 0),
				)
			},
		},
		{
			name: "limit-interleave",
			build: func() Source {
				return NewLimit(NewInterleave(
					iter(ContiguousPattern(), 0, elems, 8, Read, 1),
					iter(ContiguousPattern(), 1<<31, elems, 8, Write, 0),
				), elems/2+3)
			},
			ref: func() []Request {
				return refLimit(refInterleave(
					refWalk(ContiguousPattern(), 0, elems, 8, Read, 1),
					refWalk(ContiguousPattern(), 1<<31, elems, 8, Write, 0),
				), elems/2+3)
			},
		},
		{
			name: "mix",
			build: func() Source {
				return NewMix(
					iter(ContiguousPattern(), 0, elems, 8, Read, 1),
					iter(ContiguousPattern(), 1<<31, elems, 8, Write, 0),
					mixFrac, mixGroup)
			},
			ref: func() []Request {
				return refMix(
					refWalk(ContiguousPattern(), 0, elems, 8, Read, 1),
					refWalk(ContiguousPattern(), 1<<31, elems, 8, Write, 0),
					mixFrac, mixGroup)
			},
		},
		{
			// Uneven sides: the read side runs dry first, so the tail
			// exercises the dry-side substitution.
			name: "mix-uneven",
			build: func() Source {
				return NewMix(
					iter(StridedPattern(stride), 0, elems/4+1, 8, Read, 1),
					iter(ContiguousPattern(), 1<<31, elems, 8, Write, 0),
					mixFrac, mixGroup)
			},
			ref: func() []Request {
				return refMix(
					refWalk(StridedPattern(stride), 0, elems/4+1, 8, Read, 1),
					refWalk(ContiguousPattern(), 1<<31, elems, 8, Write, 0),
					mixFrac, mixGroup)
			},
		},
		{
			name: "chase",
			build: func() Source {
				c, err := NewChaseIter(3<<31, chaseElems, 64, chaseHops, 3)
				if err != nil {
					panic(err)
				}
				return c
			},
			ref: func() []Request { return refChase(3<<31, chaseElems, 64, chaseHops, 3) },
		},
	}
}

func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		for _, c := range chainBuilders(rng) {
			want := c.ref()
			got := drainBatch(c.build(), rng)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: drained %d requests, reference has %d",
					trial, c.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: request %d diverged: got %+v reference %+v",
						trial, c.name, i, got[i], want[i])
				}
			}
		}
	}
}
