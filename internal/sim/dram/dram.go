// Package dram implements a transaction-level DRAM and memory-controller
// timing model.
//
// The model is deliberately mechanical rather than curve-fit: the
// behaviours MP-STREAM measures — burst-granularity waste for narrow
// accesses, row-buffer locality for contiguous streams, row thrash for
// large strides, read/write turnaround on shared buses, limited
// memory-level parallelism — all emerge from the standard DRAM structure:
//
//   - addresses map to (channel, bank, row) with rows interleaved across
//     banks so contiguous streams overlap activations with transfers;
//   - the data bus moves BurstBytes per burst, so a 4-byte request still
//     occupies a full burst (the FPGA no-vectorization penalty);
//   - a row hit transfers back-to-back (CAS pipelining); a row miss busies
//     its bank for RowMissNs before data can move;
//   - the controller batches reads and writes (write buffering) and pays
//     TurnaroundNs when the bus changes direction between batches;
//   - refresh steals RefreshOverhead of wall time.
//
// Timing uses float64 seconds internally; a Service run is single-threaded
// and deterministic.
package dram

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"mpstream/internal/obs"
	"mpstream/internal/sim/mem"
)

// Config describes one DRAM subsystem (all channels identical).
type Config struct {
	Name string

	Channels        int     // independent channels
	BanksPerChannel int     // banks per channel
	RowBytes        uint32  // row-buffer size per bank
	BurstBytes      uint32  // minimum bus transfer granularity
	BusGBps         float64 // per-channel peak data-bus bandwidth, GB/s (1e9)

	RowMissNs    float64 // precharge+activate+CAS before data on a row miss
	TurnaroundNs float64 // bus read<->write turnaround penalty
	BatchSize    int     // same-direction batch length per channel
	ReorderWin   int     // controller reorder-buffer depth (requests)

	// ActWindowNs / ActsPerWindow model the tFAW constraint: at most
	// ActsPerWindow row activations may start in any ActWindowNs window
	// per channel. Zero ActWindowNs disables the limit. This is the
	// mechanism that caps row-miss-storm bandwidth on large strides.
	ActWindowNs   float64
	ActsPerWindow int

	RefreshLoss float64 // fraction of time lost to refresh, e.g. 0.03

	// InterleaveBytes is the channel-interleave granularity. Zero selects
	// per-stream placement: a request's Stream tag picks its channel,
	// modelling FPGA boards whose DDR banks hold whole buffers.
	InterleaveBytes uint32

	// HashChannels XOR-folds the block address when picking a channel,
	// the standard defence against power-of-two strides camping on one
	// channel. CPUs and GPUs hash; simple FPGA shells do not.
	HashChannels bool

	// HashBanks XOR-folds the row index when picking a bank, so
	// power-of-two strides spread across banks (GPU memory controllers
	// hash banks; simple FPGA shells map them linearly).
	HashBanks bool

	// InitialLatencyNs is the cold-start latency before the first data
	// beat (command path, first activation).
	InitialLatencyNs float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram %q: channels must be positive", c.Name)
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("dram %q: banks must be positive", c.Name)
	case !mem.CheckPow2(c.RowBytes):
		return fmt.Errorf("dram %q: row bytes %d must be a power of two", c.Name, c.RowBytes)
	case !mem.CheckPow2(c.BurstBytes):
		return fmt.Errorf("dram %q: burst bytes %d must be a power of two", c.Name, c.BurstBytes)
	case c.RowBytes < c.BurstBytes:
		return fmt.Errorf("dram %q: row smaller than burst", c.Name)
	case c.BusGBps <= 0:
		return fmt.Errorf("dram %q: bus bandwidth must be positive", c.Name)
	case c.RowMissNs < 0 || c.TurnaroundNs < 0 || c.InitialLatencyNs < 0:
		return fmt.Errorf("dram %q: latencies must be non-negative", c.Name)
	case c.ActWindowNs < 0:
		return fmt.Errorf("dram %q: activate window must be non-negative", c.Name)
	case c.RefreshLoss < 0 || c.RefreshLoss >= 1:
		return fmt.Errorf("dram %q: refresh loss %v out of [0,1)", c.Name, c.RefreshLoss)
	case c.InterleaveBytes != 0 && !mem.CheckPow2(c.InterleaveBytes):
		return fmt.Errorf("dram %q: interleave bytes %d must be a power of two", c.Name, c.InterleaveBytes)
	}
	return nil
}

// PeakGBps returns the aggregate peak data-bus bandwidth in GB/s.
func (c Config) PeakGBps() float64 {
	return float64(c.Channels) * c.BusGBps
}

// withDefaults fills unset tunables.
func (c Config) withDefaults() Config {
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.ReorderWin == 0 {
		c.ReorderWin = 2 * c.BatchSize * c.Channels
	}
	if c.ActWindowNs > 0 && c.ActsPerWindow == 0 {
		c.ActsPerWindow = 4
	}
	return c
}

// Result summarizes one Service run.
type Result struct {
	Seconds     float64 // elapsed simulated time
	Txns        uint64  // transactions serviced
	Bytes       uint64  // requested bytes (what the kernel asked for)
	BusBytes    uint64  // bytes actually moved on the bus (burst granularity)
	RowHits     uint64
	RowMisses   uint64
	Turnarounds uint64
	Drained     bool // source fully consumed (false when bounded)
}

// RequestedGBps is the bandwidth the benchmark observes: requested bytes
// over elapsed time, in GB/s.
func (r Result) RequestedGBps() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Seconds / 1e9
}

// RowHitRate returns the fraction of transactions that hit an open row.
func (r Result) RowHitRate() float64 {
	total := r.RowHits + r.RowMisses
	if total == 0 {
		return 0
	}
	return float64(r.RowHits) / float64(total)
}

// Model is a DRAM subsystem ready to service request streams. Each Service
// call runs on fresh state.
//
// A Model is safe for concurrent use: every Service* call owns its
// controller state for the duration of the call. Sequential calls reuse
// a cached arena (controller state plus request buffers) so steady-state
// service allocates nothing; when calls overlap, the late arrivals fall
// back to fresh per-call state, which costs allocation but never
// correctness. Sustained parallel workloads should give each goroutine
// its own Clone so every worker keeps the allocation-free fast path.
type Model struct {
	cfg Config

	// Hot-path precomputation (set by New/Clone from the validated,
	// power-of-two-checked configuration).
	rowShift   uint
	burstShift uint
	ilShift    uint
	ilMask     uint64
	chanDiv    divisor
	bankDiv    divisor

	// The reusable arena, guarded by busy: CAS in acquire, Store(false)
	// in release. The pointer itself is written only by the CAS winner.
	busy  atomic.Bool
	arena *svcState
}

// New builds a model, panicking on invalid configuration (configurations
// are compile-time constants of the device packages; an invalid one is a
// programming error).
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{cfg: cfg.withDefaults()}
	m.precompute()
	return m
}

// precompute derives the shift/mask forms of the power-of-two geometry,
// replacing per-request divisions on the issue path.
func (m *Model) precompute() {
	m.rowShift = mem.Log2(uint64(m.cfg.RowBytes))
	m.burstShift = mem.Log2(uint64(m.cfg.BurstBytes))
	if m.cfg.InterleaveBytes != 0 {
		m.ilShift = mem.Log2(uint64(m.cfg.InterleaveBytes))
		m.ilMask = uint64(m.cfg.InterleaveBytes) - 1
	}
	m.chanDiv = newDivisor(uint64(m.cfg.Channels))
	m.bankDiv = newDivisor(uint64(m.cfg.BanksPerChannel))
}

// divisor is a strength-reduced unsigned divisor. Channel and bank
// counts need not be powers of two (the bench GPU has 6 channels), so
// the issue path cannot always shift/mask — but it must not pay a
// hardware divide per transaction either. Powers of two reduce to a
// shift/mask; everything else to a multiply-high by the precomputed
// reciprocal floor(2^64/d) plus one conditional fix-up.
type divisor struct {
	d     uint64
	recip uint64 // floor(2^64/d); 0 when d is a power of two
	shift uint   // power of two: log2(d)
	mask  uint64 // power of two: d-1
}

func newDivisor(d uint64) divisor {
	v := divisor{d: d, mask: d - 1}
	if d&(d-1) == 0 {
		v.shift = mem.Log2(d)
		return v
	}
	// floor(2^64/d): Div64 needs its high word below d, and d >= 3 here
	// (1 and 2 are powers of two).
	v.recip, _ = bits.Div64(1, 0, d)
	return v
}

// divmod returns n/d and n%d.
//
// Exactness of the reciprocal path: recip = (2^64-e)/d with
// e = 2^64 mod d < d, so n*recip/2^64 = n/d - n*e/(d*2^64) and the
// error term is below 1 for any n < 2^64 — the estimated quotient is
// floor(n/d) or one less, and a single conditional subtract corrects
// it. The divisor parity test exercises this against the hardware
// divide.
func (v divisor) divmod(n uint64) (uint64, uint64) {
	if v.recip == 0 {
		return n >> v.shift, n & v.mask
	}
	q, _ := bits.Mul64(n, v.recip)
	r := n - q*v.d
	if r >= v.d {
		r -= v.d
		q++
	}
	return q, r
}

// mod returns n%d.
func (v divisor) mod(n uint64) uint64 {
	if v.recip == 0 {
		return n & v.mask
	}
	q, _ := bits.Mul64(n, v.recip)
	r := n - q*v.d
	if r >= v.d {
		r -= v.d
	}
	return r
}

// Clone returns an independent model with the same configuration and its
// own arena — the cheap way to hand each worker goroutine a model that
// keeps the allocation-free service path.
func (m *Model) Clone() *Model {
	c := &Model{cfg: m.cfg}
	c.precompute()
	return c
}

// Config returns the model's configuration (with defaults applied).
func (m *Model) Config() Config { return m.cfg }

// svcState is one service run's controller state plus the reusable
// request buffers. The model caches one instance across sequential runs.
//
// The per-channel state is flattened: banks and the completion and
// activation rings live in single arrays indexed by channel, not in
// per-channel slices. Channel and bank selection are data-dependent
// loads on the issue path, so every slice header removed is one fewer
// chained indirection per transaction.
//
// The open loop uses only the channel, bank and tFAW arrays. The closed
// loop (ServiceBounded, ServiceCheckpoint) keeps all of its state here
// too, so a checkpoint can copy a run mid-flight into fork.
type svcState struct {
	chans   []chanState
	banks   []bankState // Channels x BanksPerChannel
	actRing []float64   // Channels x ActsPerWindow tFAW ring; nil when disabled

	src   mem.Source
	limit uint64 // the closed loop's transaction bound; all ones for none

	// The reorder buffer and its per-direction population, so direction
	// switching never rescans it.
	buf                 []mem.Request
	pendRead, pendWrite int
	curOp               mem.Op // the direction of the next batch
	started             bool   // the first fill has set curOp

	batch    []mem.Request // the batch gathered this round, in address order
	gathered int           // its length before the bound truncates it
	chunk    []routedReq   // decoded requests awaiting issue, capacity routedChunk
	queued   uint64        // transactions gathered so far, issued or in chunk
	res      LoadedResult  // the counters of the transactions issued so far

	cp      *Checkpoint // the checkpoint still to take; nil once taken or without one
	pauser  mem.Pauser  // src, when cp forks at its pause
	counted uint64      // transactions another run already reported for this one

	owned bool      // this is the model's cached arena; release clears busy
	fork  *svcState // a checkpoint's copy of this state, built on first use
}

// acquire returns run-ready (cold) controller state, reusing the cached
// arena when the model is not already mid-service on another goroutine.
func (m *Model) acquire() *svcState {
	if m.busy.CompareAndSwap(false, true) {
		st := m.arena
		if st == nil {
			st = m.newState()
			st.owned = true
			m.arena = st
		} else {
			m.resetState(st)
		}
		return st
	}
	// Concurrent call: private fresh state for this run only.
	return m.newState()
}

func (m *Model) release(st *svcState) {
	if st.owned {
		m.busy.Store(false)
	}
}

// grow returns s with length n, reallocating only when capacity lacks.
func grow(s []mem.Request, n int) []mem.Request {
	if cap(s) < n {
		return make([]mem.Request, n)
	}
	return s[:n]
}

type bankState struct {
	openRow int64 // -1 when closed
	freeAt  float64
}

// chanState is the per-channel hot state; its banks and rings live in
// the svcState flat arrays (see svcState), indexed by channel.
type chanState struct {
	busFree float64
	last    int32 // last op on the bus, -1 before the first (one compare on the hot path)
	actHead int32 // activation-ring cursor
}

// Service drains src through the memory system and returns the timing
// result. It is equivalent to ServiceBounded(src, 0).
func (m *Model) Service(src mem.Source) Result {
	return m.ServiceBounded(src, 0)
}

// newState builds cold controller state.
func (m *Model) newState() *svcState {
	cfg := m.cfg
	st := &svcState{
		chans: make([]chanState, cfg.Channels),
		banks: make([]bankState, cfg.Channels*cfg.BanksPerChannel),
	}
	for c := range st.chans {
		st.chans[c].last = -1
	}
	for b := range st.banks {
		st.banks[b].openRow = -1
	}
	if cfg.ActWindowNs > 0 {
		st.actRing = make([]float64, cfg.Channels*cfg.ActsPerWindow)
		for a := range st.actRing {
			st.actRing[a] = -cfg.ActWindowNs
		}
	}
	return st
}

// resetState restores cached controller state to cold, preserving the
// backing arrays — the in-place equivalent of newState.
func (m *Model) resetState(st *svcState) {
	for i := range st.chans {
		st.chans[i] = chanState{last: -1}
	}
	for b := range st.banks {
		st.banks[b] = bankState{openRow: -1}
	}
	for a := range st.actRing {
		st.actRing[a] = -m.cfg.ActWindowNs
	}
}

// LoadedOptions parameterizes an open-loop ServiceLoadedRouted run.
type LoadedOptions struct {
	// InterArrivalNs spaces background arrivals: background request i
	// arrives at i * InterArrivalNs, so it sets the offered injection
	// rate (request size / InterArrivalNs bytes per ns). Zero or a
	// negative value means back-to-back arrivals, one burst transfer
	// time apart (the bus speed).
	InterArrivalNs float64
	// MaxTxns bounds the run; 0 services both sources fully.
	MaxTxns uint64
	// WarmupTxns excludes the first transactions from the latency
	// statistics (they still run and occupy the system): the measurement
	// should see the steady state, not the cold ramp.
	WarmupTxns uint64
}

// LoadedResult extends Result with the open-loop latency accounting a
// bandwidth–latency surface needs: per-request latency (completion
// minus arrival) over all requests and over the probe chain alone.
type LoadedResult struct {
	Result
	// MeasuredTxns counts the requests included in the latency
	// statistics (serviced transactions past the warmup), and
	// MeasuredSpanNs the simulated time they cover.
	MeasuredTxns   uint64
	MeasuredSpanNs float64
	// TotalLatencyNs and MaxLatencyNs aggregate completion-minus-arrival
	// over the measured requests.
	TotalLatencyNs float64
	MaxLatencyNs   float64
	// Probe accounting: the dependent-chain requests only.
	ProbeTxns    uint64
	ProbeTotalNs float64
	ProbeMaxNs   float64
}

// AvgLatencyNs returns the mean measured request latency.
func (r LoadedResult) AvgLatencyNs() float64 {
	if r.MeasuredTxns == 0 {
		return 0
	}
	return r.TotalLatencyNs / float64(r.MeasuredTxns)
}

// ProbeAvgNs returns the mean probe-hop latency — the loaded latency a
// pointer chase observes under the run's background traffic.
func (r LoadedResult) ProbeAvgNs() float64 {
	if r.ProbeTxns == 0 {
		return 0
	}
	return r.ProbeTotalNs / float64(r.ProbeTxns)
}

// AvgOccupancy returns the time-averaged number of in-flight
// transactions over the measured span (Little's law: total latency
// over the elapsed time the measured requests cover, so a warmup does
// not dilute it).
func (r LoadedResult) AvgOccupancy() float64 {
	if r.MeasuredSpanNs <= 0 {
		return 0
	}
	return r.TotalLatencyNs / r.MeasuredSpanNs
}

// Prerouted is an address-decoded request stream: the output of
// Preroute, consumed by ServiceLoadedRouted. Because decode is
// timing-independent, one Prerouted stream can be rewound (Reset) and
// replayed under any number of arrival schedules — the surface
// generator decodes each curve's background walk once and sweeps the
// whole injection ladder over it.
//
// A Prerouted stream is bound to the geometry of the model that built
// it; replaying it on a differently-configured model is a programming
// error.
type Prerouted struct {
	reqs []routedReq
	pos  int
}

// Len returns the number of decoded requests in the stream.
func (p *Prerouted) Len() int { return len(p.reqs) }

// Reset rewinds the stream to its first request.
func (p *Prerouted) Reset() { p.pos = 0 }

// Preroute drains up to max requests from src and address-decodes them
// into a replayable stream. A short stream (fewer than max requests)
// means src was exhausted, exactly as a Source reporting ok == false.
func (m *Model) Preroute(src mem.Source, max int) *Prerouted {
	return m.PrerouteInto(nil, src, max)
}

// PrerouteInto is Preroute recycling p's backing array when its
// capacity allows, for callers that redecode streams in a loop (the
// surface sweep redecodes one background walk per curve). A nil p
// allocates a fresh stream; either way the result is rewound and holds
// only the newly decoded requests.
func (m *Model) PrerouteInto(p *Prerouted, src mem.Source, max int) *Prerouted {
	if p == nil || cap(p.reqs) < max {
		p = &Prerouted{reqs: make([]routedReq, 0, max)}
	} else {
		p.pos = 0
	}
	burstNs := float64(m.cfg.BurstBytes) / m.cfg.BusGBps
	var buf [256]mem.Request
	reqs := p.reqs[:max]
	n := 0
	for n < max {
		want := max - n
		if want > len(buf) {
			want = len(buf)
		}
		k := src.NextBatch(buf[:want])
		if k == 0 {
			break
		}
		m.decode(reqs[n:], buf[:k], burstNs)
		n += k
	}
	p.reqs = reqs[:n]
	return p
}

// ServiceLoadedRouted measures loaded latency: it services an open-loop
// background stream (request i arrives at i*InterArrivalNs, setting the
// offered injection rate) merged by arrival time with a dependent probe
// chain (a pointer chase: hop n+1 arrives only when hop n's data
// returned). Requests are serviced first-come first-served in arrival
// order, and every latency is completion minus arrival.
//
// The probe's average latency is the loaded latency of the
// bandwidth–latency surface methodology: offered background load well
// below capacity leaves it near the idle round trip; as offered load
// approaches the sustainable bandwidth, each probe round trip spans
// more and more background service time and the latency follows the
// queueing-theory hockey stick, diverging past saturation.
//
// Both streams come address-decoded from Preroute, so a stream decoded
// once can be rewound and replayed under every rung of an injection
// ladder. Either stream may be nil: a nil background measures the idle
// chase latency, a nil probe measures pure open-loop background
// service. The open-loop path deliberately skips the closed-loop
// reorder/batch machinery of Service: a latency probe measures the
// controller as the traffic presents itself.
func (m *Model) ServiceLoadedRouted(bg, probe *Prerouted, opts LoadedOptions) LoadedResult {
	st := m.acquire()
	defer m.release(st)

	start := m.cfg.InitialLatencyNs
	inter := opts.InterArrivalNs
	if inter <= 0 {
		inter = float64(m.cfg.BurstBytes) / m.cfg.BusGBps // back-to-back at bus speed when unset
	}
	var bgList, prList []routedReq
	if bg != nil {
		bgList = bg.reqs[bg.pos:]
	}
	if probe != nil {
		prList = probe.reqs[probe.pos:]
	}

	var res LoadedResult
	nBg, nProbe := m.issue(st, &res, bgList, prList, start, inter, opts.MaxTxns, opts.WarmupTxns)
	if bg != nil {
		bg.pos += nBg
	}
	if probe != nil {
		probe.pos += nProbe
	}
	finish(&res.Result, st.chans, start, &m.cfg, nBg == len(bgList) && nProbe == len(prList))
	obs.AddDRAMRequests(res.Txns)
	return res
}

// noWarmup disables issue's latency accounting: no transaction count
// ever reaches it.
const noWarmup = ^uint64(0)

// issue is the controller's one timing body: it merges a background
// stream (request i arrives at start + i*inter) with a dependent probe
// chain (each hop arrives when the previous one completed) by arrival
// time and times every transaction against the controller state in st,
// issuing at most maxTxns (0 = unlimited). Transactions past the first
// warmup enter the latency statistics. It returns how many requests of
// each stream it issued and folds its counters into t: the counts and
// latency sums accumulate across calls, and MeasuredSpanNs is this
// call's.
//
// The open loop calls it once per run. The closed loop (ServiceBounded)
// calls it once per chunk of reordered requests, every one arriving at
// start: no probe, inter-arrival 0, warmup disabled.
//
// Every iteration issues exactly one transaction, so the loop always
// ends: at maxTxns, or when both streams are spent. The configuration
// scalars, controller arrays and counters all live in locals: the
// compiler cannot prove the per-transaction stores leave m.cfg and t
// untouched, so keeping them in memory would reload every hot field once
// per transaction. The parity tests in parity_test.go hold both callers
// to the frozen reference, float for float.
//
// Two gates the earlier controller carried are provably vacuous, so the
// loop leaves them out (the frozen reference in reference_test.go still
// simulates both; the parity suite pins bit-identity):
//
//   - A per-channel in-flight limit (a completion ring of any depth).
//     Issue is in-order per channel and issueAt >= ch.busFree, so
//     per-channel completion times are monotone non-decreasing; a
//     completion recorded any number of transactions ago can never
//     exceed ch.busFree and the ring never binds.
//   - The arrival clamp. ready >= arrival on both the hit path
//     (ready == arrival) and the miss path (act >= arrival), so
//     max(busFree, ready) already dominates it.
func (m *Model) issue(st *svcState, t *LoadedResult, bg, probe []routedReq, start, inter float64, maxTxns, warmup uint64) (nBg, nProbe int) {
	cfg := &m.cfg
	turnNs, rowMissNs, actWinNs := cfg.TurnaroundNs, cfg.RowMissNs, cfg.ActWindowNs
	actsPer := cfg.ActsPerWindow
	chans, banks, actRing := st.chans, st.banks, st.actRing
	if maxTxns == 0 {
		maxTxns = ^uint64(0) // unlimited: fold the cap into one compare
	}

	// What follows from the counters is not counted: row misses are the
	// transactions that did not hit, the measured ones are those past the
	// warmup, and the frontier is read off the channels (see frontier).
	var txns, bytes, busBytes, rowHits, turnarounds, probeTxns uint64
	var totalLat, maxLat, probeTotal, probeMax float64

	// Background request i arrives at start + i*inter (fslot carries i
	// as a float — integer increments of a float64 are exact far past
	// any stream length, and keeping it float spares an int conversion
	// per transaction); the probe's next hop arrives when the previous
	// one completed.
	fslot := 0.0
	bgArrival, probeArrival := start, start
	bgOK, prOK := len(bg) > 0, len(probe) > 0

	// measureStart marks the simulated frontier when the warmup
	// completes, bounding the measured span for occupancy.
	measureStart := start
	for (bgOK || prOK) && txns < maxTxns {
		if txns == warmup {
			measureStart = frontier(chans, start)
		}
		warm := txns >= warmup
		// Background goes first on ties: the probe joins the queue behind
		// traffic already in flight. The probe is the fallback, so an
		// unordered (NaN) arrival still issues something.
		fromBg := bgOK && (!prOK || bgArrival <= probeArrival)
		var rr *routedReq
		var arrival float64
		if fromBg {
			rr, arrival = &bg[nBg], bgArrival
		} else {
			rr, arrival = &probe[nProbe], probeArrival
		}

		ch := &chans[rr.chIdx]
		bank := &banks[rr.bankFlat]
		// Direction turnaround applies when the bus flips direction.
		if op := int32(rr.op); ch.last != op {
			if ch.last >= 0 {
				ch.busFree += turnNs
				turnarounds++
			}
			ch.last = op
		}
		var ready float64
		if bank.openRow == rr.row {
			// Row hit: CAS pipelines with the previous transfer.
			ready = arrival
			rowHits++
		} else {
			// Row miss: the bank precharges/activates after its previous
			// use, subject to the channel's tFAW activation-rate limit —
			// the new activation may not start before the
			// ActsPerWindow-th previous one plus the window.
			act := bank.freeAt
			if act < arrival {
				act = arrival
			}
			if actRing != nil {
				ai := int(rr.chIdx)*actsPer + int(ch.actHead)
				if g := actRing[ai] + actWinNs; act < g {
					act = g
				}
				actRing[ai] = act
				if ch.actHead++; int(ch.actHead) == actsPer {
					ch.actHead = 0
				}
			}
			ready = act + rowMissNs
			bank.openRow = rr.row
		}
		issueAt := ch.busFree
		if issueAt < ready {
			issueAt = ready
		}
		end := issueAt + rr.transfer
		ch.busFree = end
		bank.freeAt = end
		txns++
		bytes += uint64(rr.size)
		busBytes += uint64(rr.busBytes)

		if warm {
			lat := end - arrival
			totalLat += lat
			if lat > maxLat {
				maxLat = lat
			}
			if !fromBg {
				probeTxns++
				probeTotal += lat
				if lat > probeMax {
					probeMax = lat
				}
			}
		}
		if fromBg {
			nBg++
			fslot++
			bgArrival = start + fslot*inter
			bgOK = nBg < len(bg)
		} else {
			nProbe++
			probeArrival = end
			prOK = nProbe < len(probe)
		}
	}

	t.Txns += txns
	t.Bytes += bytes
	t.BusBytes += busBytes
	t.RowHits += rowHits
	t.RowMisses += txns - rowHits
	t.Turnarounds += turnarounds
	if txns > warmup {
		t.MeasuredTxns += txns - warmup
	}
	t.TotalLatencyNs += totalLat
	t.MaxLatencyNs = max(t.MaxLatencyNs, maxLat)
	t.ProbeTxns += probeTxns
	t.ProbeTotalNs += probeTotal
	t.ProbeMaxNs = max(t.ProbeMaxNs, probeMax)
	t.MeasuredSpanNs = frontier(chans, start) - measureStart
	return nBg, nProbe
}

// routedChunk is the closed loop's issue granularity: the closed loop
// decodes its reordered batches into chunks of this many requests and
// times each chunk with one call to issue.
const routedChunk = 1024

// ServiceBounded services at most maxTxns transactions (0 = unlimited).
// Bounded runs are the basis of sampled simulation for very large arrays.
//
// The closed loop is a reorder front end that never reads a clock: it
// gathers same-direction batches from a reorder window, sorts each by
// address, and decodes them into chunks that issue times with every
// request arriving at the run start.
func (m *Model) ServiceBounded(src mem.Source, maxTxns uint64) Result {
	return m.serviceClosed(src, maxTxns, nil)
}

// Checkpoint asks a closed-loop run for a second result: that of a
// shorter run over the same stream. The two runs take the same steps
// until the point where the shorter one starts to end, so the run takes
// the checkpoint there: it copies its state, finishes the copy the way
// the shorter run would, and then goes on. The shorter run's result is
// the same, bit for bit, as a separate run's.
type Checkpoint struct {
	// At, when positive, makes the shorter run ServiceBounded(src, At):
	// the copy truncates the batch that crosses At and stops. At must be
	// below the run's own bound.
	//
	// With At zero, src must be a mem.Pauser, and the shorter run is one
	// over a source that ends at the pause with what Resume returns: the
	// copy is taken when a fill finds src paused, reads the rest of its
	// stream from Resume's source, and the run reads on from src.
	At uint64
	// Fork, when set, is called once, where the runs part and before the
	// copy runs: at the checkpoint, or at the end of a stream that ended
	// before it, where the two runs are one.
	Fork func()
	// Result is the shorter run's result, set when the service returns.
	Result Result
}

// ServiceCheckpoint is ServiceBounded(src, maxTxns) that also fills in
// cp.Result. A sampled run to 2·window with a checkpoint at window costs
// one run to 2·window plus the copy's ending, not a second run.
func (m *Model) ServiceCheckpoint(src mem.Source, maxTxns uint64, cp *Checkpoint) Result {
	if cp.At > 0 && maxTxns > 0 && cp.At >= maxTxns {
		panic(fmt.Sprintf("dram: checkpoint at %d txns is not below the run's bound %d", cp.At, maxTxns))
	}
	return m.serviceClosed(src, maxTxns, cp)
}

// serviceClosed runs the closed loop over src on fresh controller state.
func (m *Model) serviceClosed(src mem.Source, maxTxns uint64, cp *Checkpoint) Result {
	st := m.acquire()
	defer m.release(st)
	cfg := &m.cfg

	st.src, st.limit = src, maxTxns
	if maxTxns == 0 {
		st.limit = ^uint64(0)
	}
	st.buf = grow(st.buf, cfg.ReorderWin)[:0]
	st.pendRead, st.pendWrite = 0, 0
	st.curOp, st.started = mem.Read, false
	// BatchSize is per channel; the controller issues a global batch
	// sized so each channel sees a full same-direction run.
	st.batch = grow(st.batch, cfg.BatchSize*cfg.Channels)[:0]
	st.gathered = 0
	if st.chunk == nil {
		st.chunk = make([]routedReq, 0, routedChunk)
	}
	st.chunk = st.chunk[:0]
	st.queued, st.res, st.counted = 0, LoadedResult{}, 0
	st.cp, st.pauser = cp, nil
	if cp != nil && cp.At == 0 {
		p, ok := src.(mem.Pauser)
		if !ok {
			panic("dram: a checkpoint without a bound needs a source that pauses")
		}
		st.pauser = p
	}

	res := m.closed(st)
	taken := st.cp == nil
	st.src, st.cp, st.pauser = nil, nil, nil // the arena holds no caller's source between runs
	if cp != nil && !taken {
		// The stream ended before the checkpoint: the shorter run is
		// this one.
		if !res.Drained {
			panic("dram: the run reached its bound before its checkpoint")
		}
		if cp.Fork != nil {
			cp.Fork()
		}
		cp.Result = res
	}
	return res
}

// closed runs st's closed loop to its end and returns its result. Each
// round issues the batch gathered last round, refills the reorder
// buffer, picks a direction and gathers the next batch. A checkpoint at
// a bound forks after the gather of the batch that crosses it, one at a
// pause inside the fill that finds the source paused; either way the
// copy resumes this same loop where its original stood.
func (m *Model) closed(st *svcState) Result {
	for !m.emit(st) {
		m.fill(st)
		st.steer()
		if len(st.buf) == 0 {
			break
		}
		m.gather(st)
		if cp := st.cp; cp != nil && cp.At > 0 && st.queued+uint64(len(st.batch)) >= cp.At {
			m.fork(st)
		}
	}
	start := m.cfg.InitialLatencyNs
	m.issue(st, &st.res, st.chunk, nil, start, 0, 0, noWarmup)
	res := st.res.Result
	finish(&res, st.chans, start, &m.cfg, st.queued < st.limit)
	obs.AddDRAMRequests(res.Txns - st.counted)
	return res
}

// emit moves the gathered batch, truncated to the bound, into the
// decoded chunk, issuing the chunk whenever it fills. It reports whether
// the run reached its bound: then it reads no further ahead.
func (m *Model) emit(st *svcState) bool {
	batch := st.batch
	if left := st.limit - st.queued; uint64(len(batch)) > left {
		batch = batch[:left]
	}
	st.queued += uint64(len(batch))
	burstNs := float64(m.cfg.BurstBytes) / m.cfg.BusGBps // ns per burst (GB/s == B/ns)
	chunk := st.chunk
	for rest := batch; len(rest) > 0; {
		if len(chunk) == cap(chunk) {
			m.issue(st, &st.res, chunk, nil, m.cfg.InitialLatencyNs, 0, 0, noWarmup)
			chunk = chunk[:0]
		}
		n := min(len(rest), cap(chunk)-len(chunk))
		m.decode(chunk[len(chunk):cap(chunk)], rest[:n], burstNs)
		chunk, rest = chunk[:len(chunk)+n], rest[n:]
	}
	st.chunk, st.batch = chunk, st.batch[:0]
	return st.queued == st.limit
}

// fill tops the reorder buffer up from the source. When the source
// comes up short at the checkpoint's pause, fill takes the checkpoint
// and reads on.
func (m *Model) fill(st *svcState) {
	win := m.cfg.ReorderWin
	buf := st.buf
	for len(buf) < win {
		n := st.src.NextBatch(buf[len(buf):win])
		if n == 0 {
			if st.pauser == nil || !st.pauser.Paused() {
				break
			}
			st.buf = buf
			m.fork(st)
			continue
		}
		for _, r := range buf[len(buf) : len(buf)+n] {
			if r.Op == mem.Read {
				st.pendRead++
			} else {
				st.pendWrite++
			}
		}
		buf = buf[:len(buf)+n]
	}
	st.buf = buf
}

// steer picks the direction of the next batch: at the start, the first
// request's.
func (st *svcState) steer() {
	if !st.started {
		st.started = true
		if len(st.buf) > 0 {
			st.curOp = st.buf[0].Op
		}
		return
	}
	if st.gathered == 0 {
		// Nothing of the current direction pending: switch.
		st.curOp = otherOp(st.curOp)
		return
	}
	// Prefer staying in direction while work remains; switch when the
	// batch filled or the direction drained.
	other := st.pendWrite
	if st.curOp == mem.Write {
		other = st.pendRead
	}
	if other > 0 {
		st.curOp = otherOp(st.curOp)
	}
}

// gather collects one batch of the current direction in a single pass,
// compacting the keepers in place, and sorts it by address: the batch
// issues in address order (a first-ready first-served approximation:
// row hits group together instead of ping-ponging between arrays).
func (m *Model) gather(st *svcState) {
	globalBatch := m.cfg.BatchSize * m.cfg.Channels
	buf, batch, curOp := st.buf, st.batch[:0], st.curOp
	keep, scan := 0, 0
	for ; scan < len(buf) && len(batch) < globalBatch; scan++ {
		if buf[scan].Op == curOp {
			batch = append(batch, buf[scan])
		} else {
			buf[keep] = buf[scan]
			keep++
		}
	}
	keep += copy(buf[keep:], buf[scan:])
	st.buf = buf[:keep]
	st.gathered = len(batch)
	if curOp == mem.Read {
		st.pendRead -= len(batch)
	} else {
		st.pendWrite -= len(batch)
	}
	slices.SortFunc(batch, cmpByAddr)
	st.batch = batch
}

// fork takes st's checkpoint: it copies st into st.fork, runs the copy
// to its end as the shorter run and stores that run's result in the
// checkpoint. At a pause, the copy reads the end of its stream from the
// source's Resume, and st reads on from the resumed source.
func (m *Model) fork(st *svcState) {
	cp, pauser := st.cp, st.pauser
	st.cp, st.pauser = nil, nil
	if cp.Fork != nil {
		cp.Fork()
	}
	if st.fork == nil {
		st.fork = &svcState{}
	}
	f := st.fork
	f.copyFrom(st)
	f.counted = st.res.Txns
	if cp.At > 0 {
		f.limit = cp.At
	} else if f.src = pauser.Resume(); f.src == nil {
		f.src = drained{}
	}
	cp.Result = m.closed(f)
	f.src = nil
}

// copyFrom makes f a copy of st that shares no storage with it, reusing
// f's own arrays.
func (f *svcState) copyFrom(st *svcState) {
	chans, banks, actRing := f.chans, f.banks, f.actRing
	buf, batch, chunk := f.buf, f.batch, f.chunk
	*f = *st
	f.owned, f.fork = false, nil
	f.chans = append(chans[:0], st.chans...)
	f.banks = append(banks[:0], st.banks...)
	f.actRing = append(actRing[:0], st.actRing...)
	f.buf = append(grow(buf, cap(st.buf))[:0], st.buf...)
	f.batch = append(grow(batch, cap(st.batch))[:0], st.batch...)
	if cap(chunk) < cap(st.chunk) {
		chunk = make([]routedReq, 0, cap(st.chunk))
	}
	f.chunk = append(chunk[:0], st.chunk...)
}

// drained is the source of a stream with nothing left.
type drained struct{}

// NextBatch implements mem.Source.
func (drained) NextBatch([]mem.Request) int { return 0 }

// cmpByAddr orders a same-direction batch by address. The tie-breaks
// (batch entries never differ in Op) make the order total, so the
// unstable sort is deterministic; requests equal under it are fully
// interchangeable on the issue path.
func cmpByAddr(a, b mem.Request) int {
	switch {
	case a.Addr != b.Addr:
		if a.Addr < b.Addr {
			return -1
		}
		return 1
	case a.Stream != b.Stream:
		return int(a.Stream) - int(b.Stream)
	default:
		return int(a.Size) - int(b.Size)
	}
}

// hashBlock XOR-folds the upper address bits into the low bits so that
// any fixed power-of-two stride still spreads across channels.
func hashBlock(b uint64) uint64 {
	h := b
	h ^= b >> 7
	h ^= b >> 13
	h ^= b >> 21
	return h
}

func otherOp(o mem.Op) mem.Op {
	if o == mem.Read {
		return mem.Write
	}
	return mem.Read
}

// routedReq is a request after address decode: the timing-independent
// half of issuing a transaction (channel/bank routing, row index,
// burst count) resolved once, leaving only the clock arithmetic for
// the issue loop. Decoding commutes with timing, so a stream can be
// decoded ahead of service — or once, and then replayed under many
// different arrival schedules (the surface's injection ladder).
type routedReq struct {
	row      int64   // full row index (unique across banks)
	transfer float64 // bus occupancy: bursts x ns-per-burst
	chIdx    int32   // channel index
	bankFlat int32   // chIdx*BanksPerChannel + bank index
	size     uint32  // requested bytes
	busBytes uint32  // bytes moved on the bus (burst granularity)
	op       mem.Op
}

// decode resolves the timing-independent half of each request of src
// into dst, which must be at least as long. burstNs is the per-burst bus
// occupancy the service loop derived from the configuration.
func (m *Model) decode(dst []routedReq, src []mem.Request, burstNs float64) {
	cfg := &m.cfg
	dst = dst[:len(src)]
	for i, r := range src {
		// Route: channel interleave via shift/mask, or per-stream placement.
		var chIdx int
		chAddr := r.Addr
		if cfg.InterleaveBytes == 0 {
			chIdx = int(r.Stream) % cfg.Channels
		} else {
			block := r.Addr >> m.ilShift
			blockQ, blockR := m.chanDiv.divmod(block)
			if cfg.HashChannels {
				chIdx = int(m.chanDiv.mod(hashBlock(block)))
			} else {
				chIdx = int(blockR)
			}
			chAddr = blockQ<<m.ilShift + r.Addr&m.ilMask
		}

		// Rows interleave across banks: consecutive rows live in
		// consecutive banks, so streaming overlaps the next bank's
		// activation. The open row is identified by the full row index,
		// which is unique whatever the bank mapping.
		rowIdx := chAddr >> m.rowShift
		bankSel := rowIdx
		if cfg.HashBanks {
			bankSel = hashBlock(rowIdx)
		}
		bankIdx := int(m.bankDiv.mod(bankSel))

		var bursts int
		if r.Size > 0 {
			bursts = int(((r.Addr+uint64(r.Size)-1)>>m.burstShift)-(r.Addr>>m.burstShift)) + 1
		}
		// Field by field: a composite literal would be assembled on the
		// stack and block-copied, and the copy's wide loads stall on the
		// narrow stores that built it.
		d := &dst[i]
		d.row = int64(rowIdx)
		d.transfer = float64(bursts) * burstNs
		d.chIdx = int32(chIdx)
		d.bankFlat = int32(chIdx*cfg.BanksPerChannel + bankIdx)
		d.size = r.Size
		d.busBytes = uint32(bursts) * cfg.BurstBytes
		d.op = r.Op
	}
}

// frontier returns the latest completion so far: each channel's
// busFree is its last transaction's end, and per-channel ends never
// decrease.
func frontier(chans []chanState, start float64) float64 {
	endNs := start
	for i := range chans {
		if chans[i].busFree > endNs {
			endNs = chans[i].busFree
		}
	}
	return endNs
}

func finish(res *Result, chans []chanState, start float64, cfg *Config, drained bool) {
	elapsedNs := frontier(chans, start)
	if res.Txns == 0 {
		elapsedNs = 0
	}
	// Refresh steals a fraction of wall time.
	if cfg.RefreshLoss > 0 {
		elapsedNs /= 1 - cfg.RefreshLoss
	}
	res.Seconds = elapsedNs * 1e-9
	res.Drained = drained
}
