package mem

// Batch parity: every source, across the compositions the device models
// actually build (kernel walks of every pattern shape, iterators,
// limits, mixes, chases), must emit exactly its frozen reference stream
// (reference_test.go) however the pulls are chunked. Chunk lengths are
// random and often 1, so chunk boundaries land mid-merge, mid-rotation
// and mid-group.

import (
	"fmt"
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
// every Source implementation in the package and both phases of a
// kernel walk (elements one by one, then the merging run).
func chainBuilders(rng *rand.Rand) []chain {
	elems := 64 + rng.Intn(1500)
	stride := 1 + rng.Intn(24)
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
	walkN := func(p Pattern, k int, eb, window uint32) Source {
		w, err := NewKernelWalk(p, elems, eb, window, kernelArrays(k)...)
		if err != nil {
			panic(err)
		}
		return w
	}
	refWalkN := func(p Pattern, k int, eb, window uint32) []Request {
		return refKernelWalk(p, elems, eb, window, kernelArrays(k))
	}
	// One kernel walk per pattern shape the walk tells apart, each over
	// 1 to MaxArrays arrays, with a window below, at or above the
	// element size. A stride past half the array ends the walk in
	// adjacent one-element passes, and a one-row or one-column matrix
	// walks its elements in address order: the walks that merge.
	shapes := []struct {
		name string
		p    Pattern
	}{
		{"contig", ContiguousPattern()},
		{"strided", StridedPattern(stride)},
		{"strided-wide", StridedPattern(elems/2 + rng.Intn(elems))},
		{"colmajor", ColMajorPattern()},
		{"colmajor-row", Pattern{Kind: ColMajor2D, Rows: 1, Cols: elems}},
		{"colmajor-col", Pattern{Kind: ColMajor2D, Rows: elems, Cols: 1}},
	}
	var walks []chain
	for _, sh := range shapes {
		k := 1 + rng.Intn(MaxArrays)
		eb := uint32(4) << rng.Intn(2)
		window := []uint32{eb / 2, eb, 2 * eb, 64, 100, uint32(1 + rng.Intn(160))}[rng.Intn(6)]
		walks = append(walks, chain{
			name:  fmt.Sprintf("walk-%s-%darrays-eb%d-window%d", sh.name, k, eb, window),
			build: func() Source { return walkN(sh.p, k, eb, window) },
			ref:   func() []Request { return refWalkN(sh.p, k, eb, window) },
		})
	}
	return append(walks, []chain{
		named("iter-contig", walk(ContiguousPattern(), 0, 8, Read, 1)),
		named("iter-strided", walk(StridedPattern(stride), 0, 4, Write, 0)),
		named("iter-colmajor", walk(ColMajorPattern(), 1<<20, 8, Read, 2)),
		{
			name: "limit-walk",
			build: func() Source {
				return NewLimit(walkN(ContiguousPattern(), 2, 8, 8), elems/2+3)
			},
			ref: func() []Request {
				return refLimit(refWalkN(ContiguousPattern(), 2, 8, 8), elems/2+3)
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
	}...)
}

// kernelArrays lays out k arrays the way a kernel does: k-1 reads, of
// b and then c, then the write to a, each tagged with its array.
func kernelArrays(k int) []Array {
	arrays := make([]Array, 0, k)
	for i := 1; i < k; i++ {
		arrays = append(arrays, Array{Base: uint64(i) << 31, Op: Read, Stream: uint8(i)})
	}
	return append(arrays, Array{Base: 0, Op: Write, Stream: 0})
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
