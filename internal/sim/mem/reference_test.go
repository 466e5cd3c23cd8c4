package mem

// Frozen reference generators: each one builds its whole stream as a
// slice, from the closed-form definition of the walk or combinator, with
// no batching, buffering or fast path. The parity test in batch_test.go
// drains the live sources through Fill in random chunk lengths and holds
// them to these slices, so every chunk boundary (mid-merge, mid-rotation,
// mid-group) must leave the stream unchanged.

// refWalk materializes an array walk from its index formulas.
func refWalk(p Pattern, base uint64, elems int, elemBytes uint32, op Op, stream uint8) []Request {
	var idx []int
	switch p.Kind {
	case Contiguous:
		for i := 0; i < elems; i++ {
			idx = append(idx, i)
		}
	case Strided:
		// Pass lane visits lane, lane+stride, lane+2*stride, ...
		for lane := 0; lane < p.StrideElems && lane < elems; lane++ {
			for i := lane; i < elems; i += p.StrideElems {
				idx = append(idx, i)
			}
		}
	case ColMajor2D:
		rows, cols := p.shape(elems)
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				idx = append(idx, r*cols+c)
			}
		}
	}
	out := make([]Request, len(idx))
	for i, x := range idx {
		out[i] = Request{Addr: base + uint64(x)*uint64(elemBytes), Size: elemBytes, Op: op, Stream: stream}
	}
	return out
}

// refInterleave takes one request from each stream per turn, skipping
// exhausted streams.
func refInterleave(streams ...[]Request) []Request {
	var out []Request
	for turn := 0; ; turn++ {
		emitted := false
		for _, s := range streams {
			if turn < len(s) {
				out = append(out, s[turn])
				emitted = true
			}
		}
		if !emitted {
			return out
		}
	}
}

// refCoalesce merges each request into its predecessor while they share
// op and stream, are physically adjacent, and fit in maxBytes together.
func refCoalesce(in []Request, maxBytes uint32) []Request {
	if maxBytes == 0 {
		maxBytes = 1
	}
	var out []Request
	for _, r := range in {
		if k := len(out) - 1; k >= 0 {
			p := &out[k]
			if p.Op == r.Op && p.Stream == r.Stream && p.Addr+uint64(p.Size) == r.Addr && p.Size+r.Size <= maxBytes {
				p.Size += r.Size
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// refKernelWalk is a kernel walk as the chain it fuses: each array's
// walk coalesced on its own, the arrays interleaved round-robin.
func refKernelWalk(p Pattern, elems int, elemBytes, window uint32, arrays []Array) []Request {
	streams := make([][]Request, len(arrays))
	for i, a := range arrays {
		streams[i] = refCoalesce(refWalk(p, a.Base, elems, elemBytes, a.Op, a.Stream), window)
	}
	return refInterleave(streams...)
}

// refLimit keeps the first n requests.
func refLimit(in []Request, n int) []Request {
	return in[:max(0, min(n, len(in)))]
}

// refChase steps the MMIX LCG once per hop and reduces the state's high
// bits modulo the element count.
func refChase(base uint64, elems int, elemBytes uint32, count int, stream uint8) []Request {
	var out []Request
	state := uint64(elems) ^ 1442695040888963407
	for i := 0; i < count; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		idx := (state >> 33) % uint64(elems)
		out = append(out, Request{Addr: base + idx*uint64(elemBytes), Size: elemBytes, Op: Read, Stream: stream})
	}
	return out
}

// refMix schedules same-direction groups of group requests whose read
// share error-diffuses toward readFrac. When the scheduled side is dry,
// the rest of its group quota is dropped and one request is taken from
// the other side, without charging that request to the other side's
// quota. The stream ends once both sides are dry.
func refMix(reads, writes []Request, readFrac float64, group int) []Request {
	readFrac = max(0, min(1, readFrac))
	if group <= 0 {
		group = DefaultMixGroup
	}
	var out []Request
	var acc float64
	readLeft, writeLeft := 0, 0
	for len(reads) > 0 || len(writes) > 0 {
		if readLeft == 0 && writeLeft == 0 {
			acc += readFrac * float64(group)
			readLeft = min(int(acc), group)
			acc -= float64(readLeft)
			writeLeft = group - readLeft
		}
		switch {
		case readLeft > 0 && len(reads) > 0:
			out, reads = append(out, reads[0]), reads[1:]
			readLeft--
		case readLeft > 0:
			readLeft = 0
			out, writes = append(out, writes[0]), writes[1:]
		case len(writes) > 0:
			out, writes = append(out, writes[0]), writes[1:]
			writeLeft--
		default:
			writeLeft = 0
			out, reads = append(out, reads[0]), reads[1:]
		}
	}
	return out
}
