package mem

// Fuzz coverage for the surface's background and probe generators and
// for the kernel walk. The properties fuzzed here are the ones the
// bandwidth–latency methodology leans on: Mix holds its read/write ratio
// to within one scheduling granule by error diffusion, ChaseIter's LCG
// walk never leaves its array, both are bit-deterministic for a fixed
// seed (the whole caching and fleet-merge story rests on that), and a
// kernel walk emits the reference coalesced, interleaved stream, as
// many transactions as Pattern.Txns counts, with its bytes conserved.
// Every target also fuzzes the Fill chunk length: a stream must not
// depend on how its pulls are chunked.
//
// Run with: go test -fuzz FuzzMix ./internal/sim/mem (etc.); the f.Add
// seeds below run on every plain `go test`.

import (
	"testing"
)

// fuzzSource is an endless generator with recognizable reads/writes.
type fuzzSource struct {
	op   Op
	next uint64
}

func (s *fuzzSource) NextBatch(dst []Request) int {
	for i := range dst {
		dst[i] = Request{Addr: s.next, Size: 64, Op: s.op}
		s.next += 64
	}
	return len(dst)
}

// fillChunked pulls up to n requests from s in Fill calls of at most
// chunk requests, stopping early only when s runs dry.
func fillChunked(s Source, n, chunk int) []Request {
	out := make([]Request, n)
	got := 0
	for got < n {
		want := min(n-got, chunk)
		k := Fill(s, out[got:got+want])
		got += k
		if k < want {
			break
		}
	}
	return out[:got]
}

// equalStreams reports the first index where a and b differ, or -1.
func equalStreams(a, b []Request) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func FuzzMix(f *testing.F) {
	f.Add(0.5, 16, uint16(1000), uint8(36))
	f.Add(1.0, 16, uint16(100), uint8(0))
	f.Add(0.0, 16, uint16(100), uint8(15))
	f.Add(2.0/3, 4, uint16(999), uint8(2))
	f.Add(0.123456, 64, uint16(5000), uint8(255))
	f.Add(-1.5, 0, uint16(300), uint8(6))
	f.Add(0.9999, 1, uint16(777), uint8(0))
	f.Fuzz(func(t *testing.T, readFrac float64, group int, n16 uint16, chunk8 uint8) {
		if readFrac != readFrac { // NaN fails both clamps
			t.Skip("NaN ratio is not a meaningful input")
		}
		if group > 1<<20 {
			t.Skip("absurd group size")
		}
		n, chunk := int(n16), int(chunk8)+1
		if n == 0 {
			return
		}
		mix := NewMix(&fuzzSource{op: Read}, &fuzzSource{op: Write}, readFrac, group)
		seq := fillChunked(mix, n, chunk)
		if len(seq) != n {
			t.Fatalf("mix of endless sources ran dry at %d", len(seq))
		}

		wantFrac := max(0, min(1, readFrac))
		g := group
		if g <= 0 {
			g = DefaultMixGroup
		}
		reads := 0
		for i, r := range seq {
			if r.Op == Read {
				reads++
			}
			// Ratio property: error diffusion keeps the emitted read count
			// within one scheduling granule of the exact quota at every
			// group boundary (mid-group the run structure allows a full
			// group of drift).
			if (i+1)%g == 0 {
				want := wantFrac * float64(i+1)
				if diff := float64(reads) - want; diff > float64(g) || diff < -float64(g) {
					t.Fatalf("after %d requests: %d reads, want %.2f ± %d (frac %g group %d)",
						i+1, reads, want, g, wantFrac, g)
				}
			}
		}

		// Determinism and chunk invariance: the stream equals the
		// reference schedule. n requests draw at most n from either side,
		// so the reference over n-request prefixes of both sides never
		// runs dry within the compared prefix.
		side := func(op Op) []Request { return fillChunked(&fuzzSource{op: op}, n, n) }
		ref := refMix(side(Read), side(Write), readFrac, group)[:n]
		if i := equalStreams(seq, ref); i >= 0 {
			t.Fatalf("diverged from the reference at %d: got %+v want %+v", i, seq[i], ref[i])
		}
	})
}

func FuzzChase(f *testing.F) {
	f.Add(uint64(0), 1024, uint32(64), uint16(512), uint8(16))
	f.Add(uint64(3)<<31, 1, uint32(64), uint16(64), uint8(0))
	f.Add(uint64(1<<40), 7777, uint32(16), uint16(2000), uint8(200))
	f.Add(uint64(64), 65536, uint32(128), uint16(100), uint8(6))
	f.Fuzz(func(t *testing.T, base uint64, elems int, elemBytes uint32, hops16 uint16, chunk8 uint8) {
		hops, chunk := int(hops16), int(chunk8)+1
		if elems <= 0 || elems > 1<<24 || elemBytes == 0 || elemBytes > 1<<12 {
			t.Skip("out of model range")
		}
		if base > 1<<48 {
			t.Skip("address overflow territory is not meaningful")
		}
		c, err := NewChaseIter(base, elems, elemBytes, hops, 3)
		if err != nil {
			t.Fatal(err)
		}
		seq := fillChunked(c, hops, chunk)
		if len(seq) != hops {
			t.Fatalf("chase of %d hops ran dry at %d", hops, len(seq))
		}
		var extra [1]Request
		if Fill(c, extra[:]) != 0 {
			t.Fatalf("chase emitted extra hop %+v past its count", extra[0])
		}
		limit := base + uint64(elems)*uint64(elemBytes)
		for i, r := range seq {
			// In-range: every hop lands on an element inside the array.
			if r.Addr < base || r.Addr+uint64(r.Size) > limit {
				t.Fatalf("hop %d at %#x (+%d) escapes [%#x, %#x)", i, r.Addr, r.Size, base, limit)
			}
			if (r.Addr-base)%uint64(elemBytes) != 0 {
				t.Fatalf("hop %d at %#x not element-aligned", i, r.Addr)
			}
			// The probe is read-only: a chase that wrote would turn the
			// latency measurement into bandwidth traffic.
			if r.Op != Read {
				t.Fatalf("hop %d is a %v; the chase must only read", i, r.Op)
			}
		}

		// Determinism and chunk invariance: the walk equals the
		// reference LCG walk.
		if i := equalStreams(seq, refChase(base, elems, elemBytes, hops, 3)); i >= 0 {
			t.Fatalf("diverged from the reference at hop %d", i)
		}
	})
}

// mustWalk builds a kernel walk or fails the test.
func mustWalk(t testing.TB, p Pattern, elems int, elemBytes, window uint32, arrays ...Array) *KernelWalk {
	t.Helper()
	w, err := NewKernelWalk(p, elems, elemBytes, window, arrays...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// FuzzCoalesce fuzzes the coalescing rule alone: one contiguous array
// of any element size under any window, windows at or below the
// element size and windows that are not a multiple of it included.
func FuzzCoalesce(f *testing.F) {
	f.Add(uint32(4), uint32(64), uint16(1024), uint8(0))
	f.Add(uint32(8), uint32(64), uint16(1000), uint8(36))
	f.Add(uint32(4), uint32(30), uint16(777), uint8(4))
	f.Add(uint32(64), uint32(0), uint16(100), uint8(1))
	f.Add(uint32(3), uint32(100), uint16(555), uint8(96))
	f.Add(uint32(4096), uint32(65536), uint16(300), uint8(6))
	f.Fuzz(func(t *testing.T, elemBytes, window uint32, elems16 uint16, chunk8 uint8) {
		elems, chunk := int(elems16), int(chunk8)+1
		if elems == 0 || elemBytes == 0 || elemBytes > 1<<12 {
			t.Skip("out of model range")
		}
		const base = 1 << 20
		w := mustWalk(t, ContiguousPattern(), elems, elemBytes, window, Array{Base: base, Op: Write, Stream: 2})
		got := fillChunked(w, elems+1, chunk)

		// Property 1: the walk's arithmetic merge is the reference merge,
		// and Txns counts it.
		if i := equalStreams(got, refCoalesce(refWalk(ContiguousPattern(), base, elems, elemBytes, Write, 2), window)); i >= 0 {
			t.Fatalf("diverged from the reference at %d", i)
		}
		if n := ContiguousPattern().Txns(elems, elemBytes, window); uint64(len(got)) != n {
			t.Fatalf("emitted %d transactions, Txns says %d", len(got), n)
		}

		// Property 2: coalescing conserves request bytes.
		var bytes uint64
		for _, r := range got {
			bytes += uint64(r.Size)
		}
		if want := uint64(elems) * uint64(elemBytes); bytes != want {
			t.Fatalf("emitted %d bytes, want %d", bytes, want)
		}
	})
}

// fuzzPattern maps a kind selector and a shape word onto a pattern over
// elems: contiguous, a stride up to twice the array, the automatic
// column-major shape, or a column-major shape whose row count is the
// largest divisor of elems not above the shape word's pick.
func fuzzPattern(kind uint8, shape uint16, elems int) Pattern {
	switch kind % 4 {
	case 1:
		return StridedPattern(1 + int(shape)%(2*elems))
	case 2:
		return ColMajorPattern()
	case 3:
		rows := 1 + int(shape)%elems
		for elems%rows != 0 {
			rows--
		}
		return Pattern{Kind: ColMajor2D, Rows: rows, Cols: elems / rows}
	default:
		return ContiguousPattern()
	}
}

// FuzzKernelWalk holds a kernel walk of any pattern over 1 to MaxArrays
// arrays to the chain it fuses, each array's reference walk coalesced
// and the arrays interleaved round-robin, pulled in fuzzed chunk
// lengths; Txns must count the stream and the bytes must be conserved.
func FuzzKernelWalk(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(1024), uint32(4), uint32(64), uint8(2), uint8(0))
	f.Add(uint8(1), uint16(2), uint16(2), uint32(4), uint32(8), uint8(2), uint8(1))
	f.Add(uint8(1), uint16(40), uint16(64), uint32(4), uint32(64), uint8(3), uint8(4))
	f.Add(uint8(1), uint16(6), uint16(1000), uint32(8), uint32(64), uint8(1), uint8(36))
	f.Add(uint8(2), uint16(0), uint16(4096), uint32(4), uint32(64), uint8(2), uint8(96))
	f.Add(uint8(3), uint16(0), uint16(48), uint32(4), uint32(64), uint8(3), uint8(5))
	f.Add(uint8(3), uint16(47), uint16(48), uint32(8), uint32(30), uint8(2), uint8(2))
	f.Add(uint8(0), uint16(0), uint16(300), uint32(16), uint32(8), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, kind uint8, shape, elems16 uint16, elemBytes, window uint32, k8, chunk8 uint8) {
		elems, chunk, k := int(elems16), int(chunk8)+1, 1+int(k8)%MaxArrays
		if elems == 0 || elemBytes == 0 || elemBytes > 1<<12 {
			t.Skip("out of model range")
		}
		p := fuzzPattern(kind, shape, elems)
		arrays := kernelArrays(k)
		got := fillChunked(mustWalk(t, p, elems, elemBytes, window, arrays...), k*elems+1, chunk)
		if i := equalStreams(got, refKernelWalk(p, elems, elemBytes, window, arrays)); i >= 0 {
			t.Fatalf("pattern %+v: diverged from the reference at %d of %d", p, i, len(got))
		}
		if n := uint64(k) * p.Txns(elems, elemBytes, window); uint64(len(got)) != n {
			t.Fatalf("pattern %+v: emitted %d transactions, %d arrays x Txns says %d", p, len(got), k, n)
		}
		var bytes uint64
		for _, r := range got {
			bytes += uint64(r.Size)
		}
		if want := uint64(k*elems) * uint64(elemBytes); bytes != want {
			t.Fatalf("pattern %+v: emitted %d bytes, want %d", p, bytes, want)
		}
	})
}
