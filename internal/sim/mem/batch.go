package mem

// Batch generation: every Source emits through NextBatch, filling a
// caller-owned slice with one call. A per-request pull would cost an
// interface call plus a walk-state switch per request, which dominates
// on streams of millions of requests; a batch pays the dispatch once and
// runs one monomorphic loop per pattern kind. Combinators (Limit, Mix,
// and cache.MissFilter downstream) pull their inputs the same way, so a
// whole generator chain moves in batches.

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

// NextBatch emits the walk round by round, finishing first a round the
// previous batch cut short.
func (w *KernelWalk) NextBatch(dst []Request) int {
	n := 0
	for ; w.arr < w.k && n < len(dst); w.arr, n = w.arr+1, n+1 {
		dst[n] = w.request(w.arr)
	}
	for n < len(dst) && w.step() {
		m := min(w.k, len(dst)-n)
		for i := range m {
			dst[n+i] = w.request(i)
		}
		n += m
		w.arr = m
	}
	return n
}

// request is array i's copy of the current span.
func (w *KernelWalk) request(i int) Request {
	a := &w.arrays[i]
	return Request{Addr: a.Base + w.off, Size: w.size, Op: a.Op, Stream: a.Stream}
}

// step moves the walk to its next span, reporting false at the end: a
// window of the run, or the next element visited one by one.
func (w *KernelWalk) step() bool {
	if w.pos < w.end {
		take := min(w.per, w.end-w.pos)
		w.off, w.size = uint64(w.pos)*w.eb, uint32(uint64(take)*w.eb)
		w.pos += take
		return true
	}
	if w.left == 0 {
		return false
	}
	var e int
	if w.kind == Strided {
		e = w.idx
		if w.idx += w.stride; w.idx >= w.elems {
			w.lane++
			w.idx = w.lane
		}
	} else {
		e = w.idx*w.cols + w.lane
		if w.idx++; w.idx >= w.rows {
			w.idx = 0
			w.lane++
		}
	}
	w.off, w.size = uint64(e)*w.eb, uint32(w.eb)
	if w.left--; w.left == 0 {
		// What is left is the run, from the next element a strided walk
		// visits (a column-major walk leaves none).
		w.pos, w.end = w.idx, w.idx+w.tail
	}
	return true
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
	n := l.src.NextBatch(dst)
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
			got := m.reads.NextBatch(dst[n : n+want])
			n += got
			m.readLeft -= got
			if got < want {
				m.readLeft = 0
				if m.writes.NextBatch(dst[n:n+1]) == 0 {
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
		got := m.writes.NextBatch(dst[n : n+want])
		n += got
		m.writeLeft -= got
		if got < want {
			m.writeLeft = 0
			if m.reads.NextBatch(dst[n:n+1]) == 0 {
				return n
			}
			n++
		}
	}
	return n
}
