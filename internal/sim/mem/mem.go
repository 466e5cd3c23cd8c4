// Package mem defines memory transactions and the access-pattern
// generators that device models replay against their memory systems.
//
// A kernel walking an array produces a stream of Requests. The walk order
// is the benchmark's "data access pattern" parameter: contiguous, fixed
// stride, or a row-major 2D array visited column-major (the pattern the
// paper uses for its strided experiments, where the stride grows with the
// array because rows get longer).
//
// Generators are pull iterators so device models can interleave several
// array streams (COPY reads one array while writing another; TRIAD reads
// two) without materializing billions of requests.
package mem

import (
	"fmt"
	"math"
	"strings"
)

// Op distinguishes reads from writes.
type Op uint8

// Request operations.
const (
	Read Op = iota
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Request is one memory transaction presented to a memory system model.
type Request struct {
	Addr   uint64 // byte address
	Size   uint32 // bytes
	Op     Op
	Stream uint8 // logical array stream the request belongs to
}

// PatternKind enumerates supported walk orders.
type PatternKind uint8

// Walk orders.
const (
	// Contiguous visits elements in ascending address order.
	Contiguous PatternKind = iota
	// Strided visits every StrideElems-th element, wrapping through the
	// array in passes so every element is visited exactly once.
	Strided
	// ColMajor2D views the array as a row-major Rows x Cols matrix and
	// visits it column-major (stride of one row, Cols passes).
	ColMajor2D
)

// String names the pattern kind.
func (k PatternKind) String() string {
	switch k {
	case Contiguous:
		return "contiguous"
	case Strided:
		return "strided"
	case ColMajor2D:
		return "colmajor2d"
	default:
		return fmt.Sprintf("PatternKind(%d)", uint8(k))
	}
}

// ParsePatternKind resolves a pattern-kind name (case-insensitive).
func ParsePatternKind(s string) (PatternKind, error) {
	switch strings.ToLower(s) {
	case "contiguous", "contig":
		return Contiguous, nil
	case "strided", "stride":
		return Strided, nil
	case "colmajor2d", "colmajor":
		return ColMajor2D, nil
	default:
		return 0, fmt.Errorf("mem: unknown pattern kind %q (want contiguous|strided|colmajor2d)", s)
	}
}

// MarshalText encodes the pattern kind as its name, for the JSON wire
// format of the service layer.
func (k PatternKind) MarshalText() ([]byte, error) {
	if k > ColMajor2D {
		return nil, fmt.Errorf("mem: unknown pattern kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes a pattern-kind name.
func (k *PatternKind) UnmarshalText(b []byte) error {
	v, err := ParsePatternKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Pattern describes a walk order over an array of elements.
type Pattern struct {
	Kind PatternKind `json:"kind"`
	// StrideElems is the element stride for Strided patterns; must be >= 1.
	StrideElems int `json:"stride_elems,omitempty"`
	// Rows, Cols give the matrix shape for ColMajor2D. Zero means derive a
	// near-square shape from the element count (Shape2D).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
}

// ContiguousPattern returns the contiguous walk.
func ContiguousPattern() Pattern { return Pattern{Kind: Contiguous} }

// StridedPattern returns a fixed-stride walk.
func StridedPattern(strideElems int) Pattern {
	return Pattern{Kind: Strided, StrideElems: strideElems}
}

// ColMajorPattern returns a column-major walk over an automatically shaped
// near-square matrix.
func ColMajorPattern() Pattern { return Pattern{Kind: ColMajor2D} }

// Validate checks the pattern against an element count.
func (p Pattern) Validate(elems int) error {
	if elems <= 0 {
		return fmt.Errorf("mem: element count %d must be positive", elems)
	}
	switch p.Kind {
	case Contiguous:
		return nil
	case Strided:
		if p.StrideElems < 1 {
			return fmt.Errorf("mem: stride %d must be >= 1", p.StrideElems)
		}
		return nil
	case ColMajor2D:
		rows, cols := p.shape(elems)
		if rows*cols != elems {
			return fmt.Errorf("mem: shape %dx%d does not cover %d elements", rows, cols, elems)
		}
		return nil
	default:
		return fmt.Errorf("mem: unknown pattern kind %d", p.Kind)
	}
}

// shape resolves the matrix shape for ColMajor2D.
func (p Pattern) shape(elems int) (rows, cols int) {
	if p.Rows > 0 && p.Cols > 0 {
		return p.Rows, p.Cols
	}
	return Shape2D(elems)
}

// Shape2D derives a near-square row-major shape for n elements: the column
// count is the largest power of two not exceeding sqrt(n) that divides n.
// For power-of-two n this gives cols = 2^floor(log2(n)/2).
func Shape2D(n int) (rows, cols int) {
	if n <= 0 {
		return 0, 0
	}
	c := 1
	for c*c <= n/4 {
		c *= 2
	}
	// Shrink until it divides n (always terminates at c=1).
	for n%c != 0 {
		c /= 2
	}
	return n / c, c
}

// EffectiveStrideElems reports the element distance between consecutive
// accesses of the pattern over n elements: 1 for contiguous, StrideElems
// for strided, and the row length (cols) for column-major.
func (p Pattern) EffectiveStrideElems(n int) int {
	switch p.Kind {
	case Strided:
		if p.StrideElems < 1 {
			return 1
		}
		return p.StrideElems
	case ColMajor2D:
		_, cols := p.shape(n)
		return cols
	default:
		return 1
	}
}

// Iter generates the request stream for one array walked with pattern p.
//
// base is the array's first byte address, elems the number of elements,
// elemBytes the access granularity (word size x vector width), op the
// request direction and stream the logical stream tag. Every element is
// visited exactly once.
type Iter struct {
	pattern   Pattern
	base      uint64
	elems     int
	elemBytes uint32
	op        Op
	stream    uint8

	// walk state
	emitted int
	idx     int // current element index
	lane    int // pass number for strided / column number for colmajor
	rows    int
	cols    int
}

// NewIter builds an iterator after validating the pattern.
func NewIter(p Pattern, base uint64, elems int, elemBytes uint32, op Op, stream uint8) (*Iter, error) {
	if err := p.Validate(elems); err != nil {
		return nil, err
	}
	if elemBytes == 0 {
		return nil, fmt.Errorf("mem: element size must be positive")
	}
	it := &Iter{
		pattern:   p,
		base:      base,
		elems:     elems,
		elemBytes: elemBytes,
		op:        op,
		stream:    stream,
	}
	if p.Kind == ColMajor2D {
		it.rows, it.cols = p.shape(elems)
	}
	return it, nil
}

// Reset rewinds the iterator to the start of the walk.
func (it *Iter) Reset() {
	it.emitted, it.idx, it.lane = 0, 0, 0
}

// Source is the pull interface shared by iterators and combinators.
type Source interface {
	// NextBatch fills dst from the stream and returns the count filled.
	// A short count (< len(dst)) means the stream is exhausted.
	NextBatch(dst []Request) int
}

// Array is one array a KernelWalk walks: where it starts, which way its
// requests go and the stream tag they carry.
type Array struct {
	Base   uint64
	Op     Op
	Stream uint8
}

// MaxArrays is the most arrays a KernelWalk walks: TRIAD reads two and
// writes one.
const MaxArrays = 3

// KernelWalk is the request stream of one kernel invocation: every
// array walked with the same pattern, round by round. A round is one
// transaction per array, in the order the arrays were given (a kernel
// reads b, then c, then writes a), and every array's transaction in a
// round covers the same element span: the arrays differ only in base,
// Op and stream tag, so the walk computes each span once and emits one
// copy per array.
//
// A span merges physically adjacent elements of the walk, in walk
// order, up to a window of bytes. It models burst-coalescing load/store
// units (AOCL LSUs, GPU warp coalescers): a contiguous walk turns into
// full-width bursts, a large-stride walk does not coalesce at all. Only
// the tail of a walk can merge (see Pattern.head): the walk visits its
// first head elements one transaction each, then the rest, one
// ascending run of adjacent elements, a window at a time by address
// arithmetic.
type KernelWalk struct {
	arrays [MaxArrays]Array
	k      int // arrays walked
	elems  int
	eb     uint64
	per    int // elements per full window
	kind   PatternKind
	stride int
	rows   int
	cols   int

	// walk state
	left int // elements still to visit one by one
	tail int // elements in the run that follows them
	idx  int // current element index (strided) or row (column-major)
	lane int // pass number for strided / column number for colmajor
	pos  int // next element of the run
	end  int // one past the run's last element

	// the current round: its span and the next array to emit it for
	off  uint64
	size uint32
	arr  int
}

// NewKernelWalk builds the walk of 1 to MaxArrays arrays of elems
// elements of elemBytes each, walked with pattern p and coalesced up to
// window bytes (a window of at most elemBytes merges nothing).
func NewKernelWalk(p Pattern, elems int, elemBytes, window uint32, arrays ...Array) (*KernelWalk, error) {
	if err := p.Validate(elems); err != nil {
		return nil, err
	}
	if elemBytes == 0 {
		return nil, fmt.Errorf("mem: element size must be positive")
	}
	if len(arrays) == 0 || len(arrays) > MaxArrays {
		return nil, fmt.Errorf("mem: a kernel walks 1 to %d arrays, not %d", MaxArrays, len(arrays))
	}
	w := &KernelWalk{k: len(arrays), elems: elems, eb: uint64(elemBytes),
		per: perWindow(elemBytes, window), kind: p.Kind, stride: p.StrideElems}
	copy(w.arrays[:], arrays)
	w.rows, w.cols = p.shape(elems)
	w.left = p.head(elems)
	w.tail = elems - w.left
	w.arr = w.k
	if w.left == 0 {
		w.end = w.tail
	}
	return w, nil
}

// perWindow is how many elemBytes elements one window-byte transaction
// holds, at least one.
func perWindow(elemBytes, window uint32) int {
	return max(1, int(window/elemBytes))
}

// head is how many elements a walk of p over elems visits before the
// rest of it forms one ascending run of adjacent elements, the only
// elements a coalescer can merge. A contiguous walk, a stride of one or
// a one-row or one-column matrix is a run from the start. A strided
// walk ends in passes of one element each, lanes elems-stride up to
// stride-1 when the stride exceeds half the array, and those are
// adjacent; every earlier pass steps by the stride. A column-major walk
// of a matrix with at least two rows and columns never visits adjacent
// elements in turn.
func (p Pattern) head(elems int) int {
	switch p.Kind {
	case Strided:
		s := p.StrideElems
		if s <= 1 || s >= elems {
			return 0
		}
		return elems - max(0, 2*s-elems)
	case ColMajor2D:
		rows, cols := p.shape(elems)
		if rows == 1 || cols == 1 {
			return 0
		}
		return elems
	default:
		return 0
	}
}

// Txns is how many transactions one array's walk of p over elems
// elements of elemBytes emits, coalesced up to window bytes.
func (p Pattern) Txns(elems int, elemBytes, window uint32) uint64 {
	head := p.head(elems)
	per := perWindow(elemBytes, window)
	return uint64(head + (elems-head+per-1)/per)
}

// A Pauser is a Source whose stream can pause before its end. A short
// NextBatch count then means a pause or the end; Paused tells the two
// apart.
type Pauser interface {
	Source
	// Paused reports whether the stream is paused.
	Paused() bool
	// Resume continues a paused stream. It returns the source of what a
	// reader that stopped at the pause would still pull, the requests
	// that end the stream there; nil when there are none.
	Resume() Source
}

// Limit yields at most n requests from src, for bounded (sampled)
// simulation windows.
type Limit struct {
	src   Source
	left  int
	after int // the budget a pause resumes with; 0 when the Limit does not pause
}

// NewLimit wraps src with a request budget of n.
func NewLimit(src Source, n int) *Limit {
	return NewPausingLimit(src, n, 0)
}

// NewPausingLimit wraps src with a budget of at+more requests that
// pauses once, after the first at: the Limit then yields nothing and
// reports Paused until Resume. With more zero it never pauses.
func NewPausingLimit(src Source, at, more int) *Limit {
	return &Limit{src: src, left: max(at, 0), after: max(more, 0)}
}

// Paused implements Pauser.
func (l *Limit) Paused() bool { return l.left == 0 && l.after > 0 }

// Resume implements Pauser: a reader that stops at a Limit's pause
// pulls nothing more.
func (l *Limit) Resume() Source {
	l.left, l.after = l.after, 0
	return nil
}

// ChaseIter is the loaded-latency probe's request generator: a
// pointer-chase walk over an array, visiting pseudo-random elements in a
// deterministic sequence. Each request models one hop of the chase —
// the address of hop n+1 depends on the data returned by hop n, so a
// memory model servicing the stream must serialize the hops (the dram
// package's ServiceLoadedRouted does: a probe hop arrives only when the
// previous one completed). That
// serialization is what turns the request stream into a latency
// measurement instead of a bandwidth one.
//
// The address sequence comes from a 64-bit LCG rather than from real
// chain data: the simulator times addresses, not values, and the LCG
// gives the scattered, cache- and row-buffer-hostile walk a properly
// initialized chase array would.
type ChaseIter struct {
	base      uint64
	elems     int
	elemBytes uint32
	stream    uint8

	count   int
	emitted int
	state   uint64
	mask    uint64 // elems-1 when elems is a power of two (the common case), else 0
}

// chase LCG constants (Knuth's MMIX).
const (
	chaseMul = 6364136223846793005
	chaseInc = 1442695040888963407
)

// NewChaseIter builds a chase of count hops over an array of elems
// elements at base, tagging every request with stream.
func NewChaseIter(base uint64, elems int, elemBytes uint32, count int, stream uint8) (*ChaseIter, error) {
	if elems <= 0 {
		return nil, fmt.Errorf("mem: chase element count %d must be positive", elems)
	}
	if elemBytes == 0 {
		return nil, fmt.Errorf("mem: chase element size must be positive")
	}
	if count < 0 {
		count = 0
	}
	c := &ChaseIter{
		base:      base,
		elems:     elems,
		elemBytes: elemBytes,
		stream:    stream,
		count:     count,
		state:     uint64(elems) ^ chaseInc,
	}
	if elems > 1 && elems&(elems-1) == 0 {
		c.mask = uint64(elems) - 1
	}
	return c, nil
}

// Reset rewinds the chase to its first hop; the replayed walk is
// identical to a freshly built one.
func (c *ChaseIter) Reset() {
	c.emitted = 0
	c.state = uint64(c.elems) ^ chaseInc
}

// Mix emits requests from a read source and a write source in a fixed
// ratio, deterministically (error diffusion, no RNG): readFrac of the
// emitted requests are reads. It is the background-traffic generator of
// the bandwidth–latency surface: the read/write axis of the surface is
// exactly this ratio.
//
// Requests are scheduled in same-direction groups of group requests
// (default 16), the way a write-buffering controller drains its queues:
// strict per-request alternation would charge a bus turnaround on every
// transaction, which no real memory system pays. The read share of each
// group error-diffuses so the global ratio is exact over time. When one
// side runs dry the other continues alone.
type Mix struct {
	reads, writes Source
	readFrac      float64
	group         int

	acc       float64 // diffused read quota carried between groups
	readLeft  int     // reads left in the current group
	writeLeft int     // writes left in the current group
}

// DefaultMixGroup is the same-direction scheduling run length.
const DefaultMixGroup = 16

// NewMix builds a ratio mixer; readFrac is clamped to [0, 1] and
// group <= 0 means DefaultMixGroup.
func NewMix(reads, writes Source, readFrac float64, group int) *Mix {
	if readFrac < 0 {
		readFrac = 0
	}
	if readFrac > 1 {
		readFrac = 1
	}
	if group <= 0 {
		group = DefaultMixGroup
	}
	return &Mix{reads: reads, writes: writes, readFrac: readFrac, group: group}
}

// Reset restores the mixer to its initial schedule and rewinds both
// sides, so the replayed mix is identical to a freshly built one.
// Sides that cannot rewind are left untouched.
func (m *Mix) Reset() {
	m.acc, m.readLeft, m.writeLeft = 0, 0, 0
	if r, ok := m.reads.(interface{ Reset() }); ok {
		r.Reset()
	}
	if w, ok := m.writes.(interface{ Reset() }); ok {
		w.Reset()
	}
}

// Align rounds addr down to a multiple of unit (unit must be a power of 2).
func Align(addr uint64, unit uint32) uint64 {
	return addr &^ (uint64(unit) - 1)
}

// CheckPow2 reports whether v is a positive power of two.
func CheckPow2(v uint32) bool {
	return v != 0 && v&(v-1) == 0
}

// Log2 returns floor(log2(v)) for v >= 1.
func Log2(v uint64) uint {
	return uint(math.Ilogb(float64(v)))
}
