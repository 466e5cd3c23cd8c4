package mem

// Batch generation: every Source emits through NextBatch, filling a
// caller-owned slice with one call. A per-request pull would cost an
// interface call plus a walk-state switch per request, which dominates
// on streams of millions of requests; a batch pays the dispatch once and
// runs one monomorphic loop per pattern kind. Combinators (Interleave,
// Coalescer, Limit, Mix, and cache.MissFilter downstream) pull their
// inputs the same way, so a whole generator chain moves in batches.

// Fill pulls up to len(dst) requests from s. A short count means the
// source is exhausted.
func Fill(s Source, dst []Request) int {
	return s.NextBatch(dst)
}

// NextBatch emits the walk with one monomorphic loop per pattern kind.
func (it *Iter) NextBatch(dst []Request) int {
	n := 0
	switch it.pattern.Kind {
	case Contiguous:
		eb := uint64(it.elemBytes)
		for n < len(dst) && it.emitted < it.elems {
			dst[n] = Request{
				Addr:   it.base + uint64(it.emitted)*eb,
				Size:   it.elemBytes,
				Op:     it.op,
				Stream: it.stream,
			}
			it.emitted++
			n++
		}
	case Strided:
		eb := uint64(it.elemBytes)
		stride := it.pattern.StrideElems
		for n < len(dst) && it.emitted < it.elems {
			dst[n] = Request{
				Addr:   it.base + uint64(it.idx)*eb,
				Size:   it.elemBytes,
				Op:     it.op,
				Stream: it.stream,
			}
			it.idx += stride
			if it.idx >= it.elems {
				it.lane++
				it.idx = it.lane
			}
			it.emitted++
			n++
		}
	case ColMajor2D:
		eb := uint64(it.elemBytes)
		for n < len(dst) && it.emitted < it.elems {
			dst[n] = Request{
				Addr:   it.base + uint64(it.idx*it.cols+it.lane)*eb,
				Size:   it.elemBytes,
				Op:     it.op,
				Stream: it.stream,
			}
			it.idx++
			if it.idx >= it.rows {
				it.idx = 0
				it.lane++
			}
			it.emitted++
			n++
		}
	}
	return n
}

// NextBatch emits chase hops: one LCG step per request, no dispatch.
func (c *ChaseIter) NextBatch(dst []Request) int {
	n := 0
	state, elems, eb := c.state, uint64(c.elems), uint64(c.elemBytes)
	mask := c.mask
	for n < len(dst) && c.emitted < c.count {
		state = state*chaseMul + chaseInc
		var idx uint64
		if mask != 0 {
			idx = (state >> 33) & mask
		} else {
			idx = (state >> 33) % elems
		}
		dst[n] = Request{
			Addr:   c.base + idx*eb,
			Size:   c.elemBytes,
			Op:     Read,
			Stream: c.stream,
		}
		c.emitted++
		n++
	}
	c.state = state
	return n
}

// NextBatch emits within the budget.
func (l *Limit) NextBatch(dst []Request) int {
	if l.left < len(dst) {
		dst = dst[:l.left]
	}
	n := Fill(l.src, dst)
	l.left -= n
	return n
}

// NextBatch emits the scheduled same-direction groups: each group run is
// one Fill into the destination instead of per-request dispatch. When
// the scheduled side runs dry mid-group, the rest of its quota is
// dropped and one request is taken from the other side in its place;
// that substitute is not charged against the stand-in side's group
// quota.
func (m *Mix) NextBatch(dst []Request) int {
	n := 0
	for n < len(dst) {
		if m.readLeft == 0 && m.writeLeft == 0 {
			m.acc += m.readFrac * float64(m.group)
			m.readLeft = int(m.acc)
			if m.readLeft > m.group {
				m.readLeft = m.group
			}
			m.acc -= float64(m.readLeft)
			m.writeLeft = m.group - m.readLeft
		}
		if m.readLeft > 0 {
			want := m.readLeft
			if room := len(dst) - n; want > room {
				want = room
			}
			got := Fill(m.reads, dst[n:n+want])
			n += got
			m.readLeft -= got
			if got < want {
				m.readLeft = 0
				if Fill(m.writes, dst[n:n+1]) == 0 {
					return n
				}
				n++
			}
			continue
		}
		want := m.writeLeft
		if room := len(dst) - n; want > room {
			want = room
		}
		got := Fill(m.writes, dst[n:n+want])
		n += got
		m.writeLeft -= got
		if got < want {
			m.writeLeft = 0
			if Fill(m.reads, dst[n:n+1]) == 0 {
				return n
			}
			n++
		}
	}
	return n
}
