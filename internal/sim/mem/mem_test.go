package mem

import (
	"testing"
	"testing/quick"
)

// collect drains s through Fill.
func collect(s Source) []Request {
	var out []Request
	var buf [64]Request
	for {
		n := Fill(s, buf[:])
		out = append(out, buf[:n]...)
		if n < len(buf) {
			return out
		}
	}
}

func mustIter(t *testing.T, p Pattern, base uint64, elems int, elemBytes uint32, op Op, stream uint8) *Iter {
	t.Helper()
	it, err := NewIter(p, base, elems, elemBytes, op, stream)
	if err != nil {
		t.Fatalf("NewIter: %v", err)
	}
	return it
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Op.String wrong")
	}
}

func TestPatternKindString(t *testing.T) {
	if Contiguous.String() != "contiguous" ||
		Strided.String() != "strided" ||
		ColMajor2D.String() != "colmajor2d" {
		t.Error("PatternKind.String wrong")
	}
	if PatternKind(99).String() != "PatternKind(99)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestContiguousWalk(t *testing.T) {
	it := mustIter(t, ContiguousPattern(), 0x1000, 4, 8, Read, 1)
	got := collect(it)
	if len(got) != 4 {
		t.Fatalf("got %d requests, want 4", len(got))
	}
	for i, r := range got {
		wantAddr := uint64(0x1000 + 8*i)
		if r.Addr != wantAddr || r.Size != 8 || r.Op != Read || r.Stream != 1 {
			t.Errorf("req %d = %+v, want addr %#x size 8 read stream 1", i, r, wantAddr)
		}
	}
}

func TestStridedWalkOrder(t *testing.T) {
	// 6 elements, stride 2: passes [0 2 4] then [1 3 5].
	it := mustIter(t, StridedPattern(2), 0, 6, 4, Write, 0)
	got := collect(it)
	wantIdx := []uint64{0, 2, 4, 1, 3, 5}
	if len(got) != len(wantIdx) {
		t.Fatalf("got %d requests, want %d", len(got), len(wantIdx))
	}
	for i, r := range got {
		if r.Addr != wantIdx[i]*4 {
			t.Errorf("req %d addr = %d, want %d", i, r.Addr/4, wantIdx[i])
		}
		if r.Op != Write {
			t.Errorf("req %d op = %v, want write", i, r.Op)
		}
	}
}

func TestStridedStrideLargerThanArray(t *testing.T) {
	it := mustIter(t, StridedPattern(5), 0, 3, 4, Read, 0)
	got := collect(it)
	wantIdx := []uint64{0, 1, 2}
	if len(got) != 3 {
		t.Fatalf("got %d requests, want 3", len(got))
	}
	for i, r := range got {
		if r.Addr != wantIdx[i]*4 {
			t.Errorf("req %d addr/4 = %d, want %d", i, r.Addr/4, wantIdx[i])
		}
	}
}

func TestColMajorWalkOrder(t *testing.T) {
	// 6 elements as 3x2: row-major [0 1; 2 3; 4 5], column-major visit
	// order is 0,2,4 then 1,3,5.
	it := mustIter(t, Pattern{Kind: ColMajor2D, Rows: 3, Cols: 2}, 0, 6, 4, Read, 0)
	got := collect(it)
	wantIdx := []uint64{0, 2, 4, 1, 3, 5}
	if len(got) != len(wantIdx) {
		t.Fatalf("got %d requests, want %d", len(got), len(wantIdx))
	}
	for i, r := range got {
		if r.Addr != wantIdx[i]*4 {
			t.Errorf("req %d addr/4 = %d, want %d", i, r.Addr/4, wantIdx[i])
		}
	}
}

func TestColMajorAutoShape(t *testing.T) {
	it := mustIter(t, ColMajorPattern(), 0, 64, 4, Read, 0)
	got := collect(it)
	if len(got) != 64 {
		t.Fatalf("got %d requests, want 64", len(got))
	}
	// 64 elements -> 8x8; consecutive accesses stride one row = 8 elems.
	if got[1].Addr-got[0].Addr != 8*4 {
		t.Errorf("colmajor stride = %d bytes, want 32", got[1].Addr-got[0].Addr)
	}
}

func TestShape2D(t *testing.T) {
	cases := []struct {
		n          int
		rows, cols int
	}{
		{64, 8, 8},
		{128, 16, 8},
		{1, 1, 1},
		{2, 2, 1},
		{12, 6, 2},
		{1 << 20, 1 << 10, 1 << 10},
		{0, 0, 0},
	}
	for _, c := range cases {
		r, co := Shape2D(c.n)
		if r != c.rows || co != c.cols {
			t.Errorf("Shape2D(%d) = %dx%d, want %dx%d", c.n, r, co, c.rows, c.cols)
		}
		if c.n > 0 && r*co != c.n {
			t.Errorf("Shape2D(%d) does not cover: %d*%d", c.n, r, co)
		}
	}
}

func TestEffectiveStride(t *testing.T) {
	if got := ContiguousPattern().EffectiveStrideElems(100); got != 1 {
		t.Errorf("contiguous stride = %d, want 1", got)
	}
	if got := StridedPattern(7).EffectiveStrideElems(100); got != 7 {
		t.Errorf("strided stride = %d, want 7", got)
	}
	if got := ColMajorPattern().EffectiveStrideElems(1 << 20); got != 1<<10 {
		t.Errorf("colmajor stride = %d, want 1024", got)
	}
}

func TestValidate(t *testing.T) {
	if err := ContiguousPattern().Validate(0); err == nil {
		t.Error("zero elements must fail validation")
	}
	if err := StridedPattern(0).Validate(10); err == nil {
		t.Error("stride 0 must fail validation")
	}
	if err := (Pattern{Kind: ColMajor2D, Rows: 3, Cols: 3}).Validate(10); err == nil {
		t.Error("mismatched shape must fail validation")
	}
	if err := (Pattern{Kind: PatternKind(42)}).Validate(10); err == nil {
		t.Error("unknown kind must fail validation")
	}
	if _, err := NewIter(ContiguousPattern(), 0, 10, 0, Read, 0); err == nil {
		t.Error("zero element size must fail")
	}
}

func TestIterReset(t *testing.T) {
	it := mustIter(t, StridedPattern(3), 0, 9, 4, Read, 0)
	first := append([]Request(nil), collect(it)...)
	it.Reset()
	second := collect(it)
	if len(first) != len(second) {
		t.Fatalf("reset changed count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset changed sequence at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestIterRemaining(t *testing.T) {
	it := mustIter(t, ContiguousPattern(), 0, 5, 4, Read, 0)
	var two [2]Request
	if n := Fill(it, two[:]); n != 2 {
		t.Fatalf("first fill = %d, want 2", n)
	}
	if rest := collect(it); len(rest) != 3 || rest[0].Addr != 8 {
		t.Errorf("after 2, the rest = %+v, want 3 requests from addr 8", rest)
	}
}

func TestInterleave(t *testing.T) {
	w := mustWalk(t, ContiguousPattern(), 3, 4, 4,
		Array{Base: 0, Op: Read, Stream: 0}, Array{Base: 0x1000, Op: Write, Stream: 1})
	got := collect(w)
	if len(got) != 6 {
		t.Fatalf("got %d, want 6", len(got))
	}
	for i, r := range got {
		wantStream := uint8(i % 2)
		if r.Stream != wantStream {
			t.Errorf("req %d stream = %d, want %d (round-robin)", i, r.Stream, wantStream)
		}
	}
}

func TestCoalescerMergesContiguous(t *testing.T) {
	got := collect(mustWalk(t, ContiguousPattern(), 64, 4, 64, Array{Op: Read}))
	if len(got) != 4 {
		t.Fatalf("coalesced to %d transactions, want 4 (64x4B into 64B)", len(got))
	}
	var bytes uint64
	for i, r := range got {
		if r.Size != 64 {
			t.Errorf("txn %d size = %d, want 64", i, r.Size)
		}
		bytes += uint64(r.Size)
	}
	if bytes != 256 {
		t.Errorf("total bytes = %d, want 256", bytes)
	}
}

func TestCoalescerDoesNotMergeStrided(t *testing.T) {
	got := collect(mustWalk(t, StridedPattern(16), 64, 4, 64, Array{Op: Read}))
	if len(got) != 64 {
		t.Fatalf("strided coalesced to %d transactions, want 64 (no merging)", len(got))
	}
}

func TestCoalescerRespectsOpBoundary(t *testing.T) {
	// A read array ending where a write array starts: each merges on its
	// own, and the two never merge into each other.
	got := collect(mustWalk(t, ContiguousPattern(), 4, 4, 64,
		Array{Base: 0, Op: Read}, Array{Base: 16, Op: Write}))
	want := []Request{{Addr: 0, Size: 16, Op: Read}, {Addr: 16, Size: 16, Op: Write}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("read/write arrays coalesced to %+v, want %+v", got, want)
	}
}

func TestCoalescerPreservesBytes(t *testing.T) {
	a := Array{Base: 12, Op: Read}
	n1, b1 := totalBytes(mustWalk(t, ContiguousPattern(), 100, 4, 4, a))
	n2, b2 := totalBytes(mustWalk(t, ContiguousPattern(), 100, 4, 32, a))
	if b1 != b2 {
		t.Errorf("coalescing changed bytes: %d vs %d", b1, b2)
	}
	if n2 >= n1 {
		t.Errorf("coalescing did not reduce transactions: %d vs %d", n2, n1)
	}
	if n2 != 13 { // 400 bytes into 32B txns: 12 full + 1 of 16B
		t.Errorf("coalesced count = %d, want 13", n2)
	}
}

func TestCoalescerZeroWindow(t *testing.T) {
	got := collect(mustWalk(t, ContiguousPattern(), 4, 4, 0, Array{Op: Read})) // nothing merges
	if len(got) != 4 {
		t.Fatalf("got %d, want 4", len(got))
	}
}

// The walk merges exactly the adjacent tail the old chain's coalescer
// merged: a strided walk whose last passes hold one element each, and a
// one-row matrix walked column-major.
func TestKernelWalkMergesAdjacentTail(t *testing.T) {
	cases := []struct {
		name  string
		p     Pattern
		elems int
		want  []uint32 // transaction sizes
	}{
		{"stride past the array", StridedPattern(2), 2, []uint32{8}},
		{"one-element passes", StridedPattern(4), 5, []uint32{4, 4, 8, 4}}, // 0 4 | 1 2 | 3
		{"one-row matrix", Pattern{Kind: ColMajor2D, Rows: 1, Cols: 5}, 5, []uint32{8, 8, 4}},
		{"one-column matrix", Pattern{Kind: ColMajor2D, Rows: 5, Cols: 1}, 5, []uint32{8, 8, 4}},
	}
	for _, c := range cases {
		elems := c.elems
		got := collect(mustWalk(t, c.p, elems, 4, 8, Array{Op: Read}))
		if len(got) != len(c.want) {
			t.Fatalf("%s: %+v, want sizes %v", c.name, got, c.want)
		}
		for i, r := range got {
			if r.Size != c.want[i] {
				t.Errorf("%s: txn %d = %+v, want size %d", c.name, i, r, c.want[i])
			}
		}
		if n := c.p.Txns(elems, 4, 8); n != uint64(len(c.want)) {
			t.Errorf("%s: Txns = %d, want %d", c.name, n, len(c.want))
		}
	}
}

func TestKernelWalkErrors(t *testing.T) {
	a := Array{Op: Read}
	for name, build := range map[string]func() (*KernelWalk, error){
		"no arrays":     func() (*KernelWalk, error) { return NewKernelWalk(ContiguousPattern(), 4, 4, 4) },
		"four arrays":   func() (*KernelWalk, error) { return NewKernelWalk(ContiguousPattern(), 4, 4, 4, a, a, a, a) },
		"zero elemsize": func() (*KernelWalk, error) { return NewKernelWalk(ContiguousPattern(), 4, 0, 4, a) },
		"bad pattern":   func() (*KernelWalk, error) { return NewKernelWalk(StridedPattern(0), 4, 4, 4, a) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAlign(t *testing.T) {
	if Align(0x1234, 64) != 0x1200 {
		t.Errorf("Align(0x1234, 64) = %#x", Align(0x1234, 64))
	}
	if Align(0x1200, 64) != 0x1200 {
		t.Error("aligned address must be unchanged")
	}
}

func TestCheckPow2(t *testing.T) {
	for _, v := range []uint32{1, 2, 4, 1024, 1 << 30} {
		if !CheckPow2(v) {
			t.Errorf("CheckPow2(%d) = false", v)
		}
	}
	for _, v := range []uint32{0, 3, 6, 1000} {
		if CheckPow2(v) {
			t.Errorf("CheckPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	if Log2(1) != 0 || Log2(2) != 1 || Log2(1024) != 10 || Log2(1025) != 10 {
		t.Error("Log2 wrong")
	}
}

// Property: every pattern visits each element exactly once.
func TestQuickPatternsArePermutations(t *testing.T) {
	f := func(rawElems uint16, rawStride uint8, kindSel uint8) bool {
		elems := int(rawElems%512) + 1
		var p Pattern
		switch kindSel % 3 {
		case 0:
			p = ContiguousPattern()
		case 1:
			p = StridedPattern(int(rawStride%32) + 1)
		case 2:
			p = ColMajorPattern()
		}
		it, err := NewIter(p, 0, elems, 4, Read, 0)
		if err != nil {
			return false
		}
		seen := make([]bool, elems)
		count := 0
		for _, r := range collect(it) {
			idx := int(r.Addr / 4)
			if idx < 0 || idx >= elems || seen[idx] {
				return false
			}
			seen[idx] = true
			count++
		}
		return count == elems
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: coalescing never changes the byte total and never increases
// the transaction count.
func TestQuickCoalescerConserves(t *testing.T) {
	f := func(rawElems uint16, rawWindow uint8, strided bool) bool {
		elems := int(rawElems%1024) + 1
		window := uint32(rawWindow%128) + 1
		p := ContiguousPattern()
		if strided {
			p = StridedPattern(3)
		}
		a := Array{Base: 64, Op: Read}
		nRaw, bRaw := totalBytes(mustWalk(t, p, elems, 4, 4, a))
		nCo, bCo := totalBytes(mustWalk(t, p, elems, 4, window, a))
		return bRaw == bCo && nCo <= nRaw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLimit(t *testing.T) {
	it := mustIter(t, ContiguousPattern(), 0, 10, 4, Read, 0)
	lim := NewLimit(it, 3)
	got := collect(lim)
	if len(got) != 3 {
		t.Fatalf("Limit yielded %d, want 3", len(got))
	}
	// Budget larger than the source.
	it.Reset()
	lim = NewLimit(it, 100)
	if got := collect(lim); len(got) != 10 {
		t.Errorf("yielded %d, want 10", len(got))
	}
	// Negative budget clamps to zero.
	it.Reset()
	if got := collect(NewLimit(it, -1)); len(got) != 0 {
		t.Errorf("negative budget yielded %d", len(got))
	}
}

func TestChaseIter(t *testing.T) {
	ch, err := NewChaseIter(1<<20, 256, 64, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(ch)
	if len(got) != 100 {
		t.Fatalf("chase yielded %d hops, want 100", len(got))
	}
	distinct := make(map[uint64]bool)
	for _, r := range got {
		if r.Op != Read {
			t.Fatalf("chase emitted a %v", r.Op)
		}
		if r.Stream != 7 {
			t.Fatalf("chase stream = %d, want 7", r.Stream)
		}
		if r.Size != 64 {
			t.Fatalf("chase size = %d, want 64", r.Size)
		}
		if r.Addr < 1<<20 || r.Addr >= 1<<20+256*64 {
			t.Fatalf("chase address %#x outside the array", r.Addr)
		}
		distinct[r.Addr] = true
	}
	// A pointer chase must scatter, not stream.
	if len(distinct) < 50 {
		t.Errorf("chase visited only %d distinct addresses in 100 hops", len(distinct))
	}
	// Deterministic: a fresh iterator replays the same walk.
	ch2, _ := NewChaseIter(1<<20, 256, 64, 100, 7)
	for i, r := range collect(ch2) {
		if r != got[i] {
			t.Fatalf("hop %d differs between identical chases", i)
		}
	}
}

func TestChaseIterErrors(t *testing.T) {
	if _, err := NewChaseIter(0, 0, 64, 10, 0); err == nil {
		t.Error("zero elems must error")
	}
	if _, err := NewChaseIter(0, 8, 0, 10, 0); err == nil {
		t.Error("zero element size must error")
	}
	ch, err := NewChaseIter(0, 8, 4, -5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(ch); len(got) != 0 {
		t.Errorf("negative count yielded %d hops", len(got))
	}
}

func TestMixRatio(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 2.0 / 3, 1} {
		reads := mustIter(t, ContiguousPattern(), 0, 1000, 4, Read, 1)
		writes := mustIter(t, ContiguousPattern(), 1<<31, 1000, 4, Write, 0)
		m := NewMix(reads, writes, frac, 4)
		buf := make([]Request, 600)
		total := Fill(m, buf)
		if total != len(buf) {
			t.Fatal("mix ran dry early")
		}
		nr := 0
		for _, r := range buf {
			if r.Op == Read {
				nr++
			}
		}
		got := float64(nr) / float64(total)
		if diff := got - frac; diff > 0.01 || diff < -0.01 {
			t.Errorf("readFrac %.3f: emitted %.3f reads", frac, got)
		}
	}
}

func TestMixDrainsBothSides(t *testing.T) {
	reads := mustIter(t, ContiguousPattern(), 0, 5, 4, Read, 1)
	writes := mustIter(t, ContiguousPattern(), 1<<31, 5, 4, Write, 0)
	m := NewMix(reads, writes, 0.9, 0) // reads exhaust first
	got := collect(m)
	if len(got) != 10 {
		t.Errorf("mix yielded %d, want 10", len(got))
	}
}

// totalBytes drains a source, returning the transaction count and byte sum.
func totalBytes(s Source) (n int, bytes uint64) {
	reqs := collect(s)
	for _, r := range reqs {
		bytes += uint64(r.Size)
	}
	return len(reqs), bytes
}
