package dram

// Frozen pre-optimization reference implementations of the service
// paths, copied verbatim (modulo ref* renames) from the code as it
// stood before the hot-path rework. The parity tests drive the live,
// optimized paths and these references over identical configurations
// and request streams and demand exactly equal Results — float-for-
// float, counter-for-counter. The references are deliberately naive
// (per-call allocation, O(n^2) buffer removal, reflection sort, a
// hardware-divide router) so any behavioural shortcut taken by the
// optimized code shows up as a diff.
//
// The references still simulate the per-channel completion ring that
// the live controller proves vacuous and leaves out. Its depth is a
// parameter, not a Config field, and the parity tests draw it at
// random so the proof stays under test.

import (
	"sort"

	"mpstream/internal/sim/mem"
)

// refChanState is the pre-optimization per-channel state: banks and
// rings held in per-channel slices, ring cursors advanced by modulo.
type refChanState struct {
	busFree float64
	lastOp  mem.Op
	hasOp   bool
	banks   []bankState
	ring    []float64
	head    int
	actRing []float64
	actHead int
}

func (cs *refChanState) gate() float64 {
	return cs.ring[cs.head]
}

func (cs *refChanState) complete(t float64) {
	cs.ring[cs.head] = t
	cs.head = (cs.head + 1) % len(cs.ring)
}

func (cs *refChanState) activate(at, windowNs float64) float64 {
	if cs.actRing == nil {
		return at
	}
	if g := cs.actRing[cs.actHead] + windowNs; at < g {
		at = g
	}
	cs.actRing[cs.actHead] = at
	cs.actHead = (cs.actHead + 1) % len(cs.actRing)
	return at
}

// refRoute is the reference router: it resolves a request to (channel
// index, channel-local address) with plain divisions.
func refRoute(cfg Config, addr uint64, stream uint8) (int, uint64) {
	if cfg.InterleaveBytes == 0 {
		return int(stream) % cfg.Channels, addr
	}
	block := addr / uint64(cfg.InterleaveBytes)
	sel := block
	if cfg.HashChannels {
		sel = hashBlock(block)
	}
	chIdx := int(sel % uint64(cfg.Channels))
	chAddr := (block/uint64(cfg.Channels))*uint64(cfg.InterleaveBytes) +
		addr%uint64(cfg.InterleaveBytes)
	return chIdx, chAddr
}

// refNewChanStates builds cold reference state with a completion ring
// of depth ring per channel.
func refNewChanStates(cfg Config, ring int) []refChanState {
	chans := make([]refChanState, cfg.Channels)
	for i := range chans {
		chans[i] = refChanState{
			banks: make([]bankState, cfg.BanksPerChannel),
			ring:  make([]float64, ring),
		}
		if cfg.ActWindowNs > 0 {
			chans[i].actRing = make([]float64, cfg.ActsPerWindow)
			for a := range chans[i].actRing {
				chans[i].actRing[a] = -cfg.ActWindowNs
			}
		}
		for b := range chans[i].banks {
			chans[i].banks[b].openRow = -1
		}
	}
	return chans
}

func refIssue(cfg Config, res *Result, chans []refChanState, r mem.Request, burstNs, earliest float64) float64 {
	chIdx, chAddr := refRoute(cfg, r.Addr, r.Stream)
	ch := &chans[chIdx]

	rowIdx := chAddr / uint64(cfg.RowBytes)
	bankSel := rowIdx
	if cfg.HashBanks {
		bankSel = hashBlock(rowIdx)
	}
	bankIdx := int(bankSel % uint64(cfg.BanksPerChannel))
	row := int64(rowIdx)
	bank := &ch.banks[bankIdx]

	if ch.hasOp && ch.lastOp != r.Op {
		ch.busFree += cfg.TurnaroundNs
		res.Turnarounds++
	}
	ch.lastOp, ch.hasOp = r.Op, true

	bursts := linesTouched(r, cfg.BurstBytes)
	transfer := float64(bursts) * burstNs

	var ready float64
	if bank.openRow == row {
		ready = earliest
		res.RowHits++
	} else {
		base := bank.freeAt
		if base < earliest {
			base = earliest
		}
		act := ch.activate(base, cfg.ActWindowNs)
		ready = act + cfg.RowMissNs
		bank.openRow = row
		res.RowMisses++
	}

	issueAt := ch.busFree
	if issueAt < ready {
		issueAt = ready
	}
	if g := ch.gate(); issueAt < g {
		issueAt = g
	}
	if issueAt < earliest {
		issueAt = earliest
	}
	end := issueAt + transfer

	ch.busFree = end
	bank.freeAt = end
	ch.complete(end)

	res.Txns++
	res.Bytes += uint64(r.Size)
	res.BusBytes += uint64(bursts) * uint64(cfg.BurstBytes)
	return end
}

// refFinish is finish without the telemetry hook (the references must
// not perturb live observability counters).
func refFinish(res *Result, chans []refChanState, start float64, cfg Config, drained bool) {
	endNs := start
	for i := range chans {
		if chans[i].busFree > endNs {
			endNs = chans[i].busFree
		}
	}
	elapsedNs := endNs
	if res.Txns == 0 {
		elapsedNs = 0
	}
	if cfg.RefreshLoss > 0 {
		elapsedNs /= 1 - cfg.RefreshLoss
	}
	res.Seconds = elapsedNs * 1e-9
	res.Drained = drained
}

func refHasOp(buf []mem.Request, op mem.Op) bool {
	for _, r := range buf {
		if r.Op == op {
			return true
		}
	}
	return false
}

// pull takes one request from src through mem.Fill; the references
// consume their streams a request at a time.
func pull(src mem.Source) (mem.Request, bool) {
	var one [1]mem.Request
	if mem.Fill(src, one[:]) == 0 {
		return mem.Request{}, false
	}
	return one[0], true
}

// refServiceBounded is the pre-optimization closed-loop service path.
func refServiceBounded(m *Model, src mem.Source, maxTxns uint64, ring int) Result {
	cfg := m.cfg
	chans := refNewChanStates(cfg, ring)

	var res Result
	burstNs := float64(cfg.BurstBytes) / cfg.BusGBps
	start := cfg.InitialLatencyNs

	buf := make([]mem.Request, 0, cfg.ReorderWin)
	fill := func() {
		for len(buf) < cfg.ReorderWin {
			r, ok := pull(src)
			if !ok {
				return
			}
			buf = append(buf, r)
		}
	}
	fill()

	curOp := mem.Read
	if len(buf) > 0 {
		curOp = buf[0].Op
	}

	globalBatch := cfg.BatchSize * cfg.Channels
	batch := make([]mem.Request, 0, globalBatch)

	for len(buf) > 0 {
		if maxTxns > 0 && res.Txns >= maxTxns {
			refFinish(&res, chans, start, cfg, false)
			return res
		}
		batch = batch[:0]
		for i := 0; i < len(buf) && len(batch) < globalBatch; {
			if buf[i].Op != curOp {
				i++
				continue
			}
			batch = append(batch, buf[i])
			buf = append(buf[:i], buf[i+1:]...)
		}
		issued := len(batch)
		sort.Slice(batch, func(i, j int) bool { return batch[i].Addr < batch[j].Addr })
		for _, r := range batch {
			refIssue(cfg, &res, chans, r, burstNs, start)
			if maxTxns > 0 && res.Txns >= maxTxns {
				refFinish(&res, chans, start, cfg, false)
				return res
			}
		}
		fill()
		if issued == 0 {
			curOp = otherOp(curOp)
			continue
		}
		if refHasOp(buf, otherOp(curOp)) {
			curOp = otherOp(curOp)
		}
	}
	refFinish(&res, chans, start, cfg, true)
	return res
}

// record accumulates one serviced request's latency.
func record(res *LoadedResult, lat float64, isProbe bool) {
	res.MeasuredTxns++
	res.TotalLatencyNs += lat
	if lat > res.MaxLatencyNs {
		res.MaxLatencyNs = lat
	}
	if isProbe {
		res.ProbeTxns++
		res.ProbeTotalNs += lat
		if lat > res.ProbeMaxNs {
			res.ProbeMaxNs = lat
		}
	}
}

// refServiceLoaded is the pre-optimization open-loop service path.
func refServiceLoaded(m *Model, bg, probe mem.Source, opts LoadedOptions, ring int) LoadedResult {
	cfg := m.cfg
	chans := refNewChanStates(cfg, ring)

	var res LoadedResult
	burstNs := float64(cfg.BurstBytes) / cfg.BusGBps
	start := cfg.InitialLatencyNs
	inter := opts.InterArrivalNs
	if inter <= 0 {
		inter = burstNs
	}

	var (
		bgReq, probeReq         mem.Request
		bgOK, probeOK           bool
		bgArrival, probeArrival float64
		slot                    int
	)
	pullBg := func() {
		if bg == nil {
			bgOK = false
			return
		}
		if bgReq, bgOK = pull(bg); bgOK {
			bgArrival = start + float64(slot)*inter
			slot++
		}
	}
	pullProbe := func(after float64) {
		if probe == nil {
			probeOK = false
			return
		}
		if probeReq, probeOK = pull(probe); probeOK {
			probeArrival = after
		}
	}
	pullBg()
	pullProbe(start)

	maxEnd, measureStart := start, start
	for bgOK || probeOK {
		if opts.MaxTxns > 0 && res.Txns >= opts.MaxTxns {
			break
		}
		warm := res.Txns >= opts.WarmupTxns
		if warm && res.MeasuredTxns == 0 {
			measureStart = maxEnd
		}
		var end float64
		if bgOK && (!probeOK || bgArrival <= probeArrival) {
			end = refIssue(cfg, &res.Result, chans, bgReq, burstNs, bgArrival)
			if warm {
				record(&res, end-bgArrival, false)
			}
			pullBg()
		} else {
			end = refIssue(cfg, &res.Result, chans, probeReq, burstNs, probeArrival)
			if warm {
				record(&res, end-probeArrival, true)
			}
			pullProbe(end)
		}
		if end > maxEnd {
			maxEnd = end
		}
	}
	res.MeasuredSpanNs = maxEnd - measureStart
	refFinish(&res.Result, chans, start, cfg, !bgOK && !probeOK)
	return res
}

// linesTouched returns how many aligned lines of lineBytes a request
// spans.
func linesTouched(r mem.Request, lineBytes uint32) int {
	if r.Size == 0 {
		return 0
	}
	first := mem.Align(r.Addr, lineBytes)
	last := mem.Align(r.Addr+uint64(r.Size)-1, lineBytes)
	return int((last-first)/uint64(lineBytes)) + 1
}
