package dram

import (
	"math"
	"testing"
	"testing/quick"

	"mpstream/internal/sim/mem"
)

// testConfig is a 2-channel DDR3-1600-like subsystem: 2 x 12.8 GB/s.
func testConfig() Config {
	return Config{
		Name:            "test-ddr3",
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8192,
		BurstBytes:      64,
		BusGBps:         12.8,
		RowMissNs:       45,
		TurnaroundNs:    7.5,
		BatchSize:       16,
		ActWindowNs:     40,
		ActsPerWindow:   4,
		RefreshLoss:     0.03,
		InterleaveBytes: 1024,
		HashChannels:    true,
	}
}

// channelOf reports the channel the model's decoder routes a request at
// addr with the given stream tag to.
func channelOf(m *Model, addr uint64, stream uint8) int {
	return routedChannel(m, mem.Request{Addr: addr, Size: 64, Stream: stream})
}

// routedChannel reports the channel the model's decoder routes r to.
func routedChannel(m *Model, r mem.Request) int {
	var rr [1]routedReq
	m.decode(rr[:], []mem.Request{r}, 1)
	return int(rr[0].chIdx)
}

func contigReads(t testing.TB, elems int, elemBytes uint32) mem.Source {
	t.Helper()
	it, err := mem.NewIter(mem.ContiguousPattern(), 0, elems, elemBytes, mem.Read, 0)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BanksPerChannel = -1 },
		func(c *Config) { c.RowBytes = 1000 },
		func(c *Config) { c.BurstBytes = 48 },
		func(c *Config) { c.RowBytes = 32 },
		func(c *Config) { c.BusGBps = 0 },
		func(c *Config) { c.RowMissNs = -1 },
		func(c *Config) { c.RefreshLoss = 1.5 },
		func(c *Config) { c.InterleaveBytes = 100 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config must panic")
		}
	}()
	New(Config{})
}

func TestPeakGBps(t *testing.T) {
	if got := testConfig().PeakGBps(); got != 25.6 {
		t.Errorf("PeakGBps = %v, want 25.6", got)
	}
}

func TestContiguousStreamNearPeak(t *testing.T) {
	m := New(testConfig())
	// 64 MB of 64-byte reads: a pure streaming load.
	res := m.Service(contigReads(t, 1<<20, 64))
	if !res.Drained {
		t.Fatal("source must drain")
	}
	bw := res.RequestedGBps()
	peak := testConfig().PeakGBps()
	if bw < 0.88*peak || bw > peak {
		t.Errorf("streaming bandwidth = %.2f GB/s, want within [%.2f, %.2f]",
			bw, 0.88*peak, peak)
	}
	if hr := res.RowHitRate(); hr < 0.98 {
		t.Errorf("contiguous row hit rate = %.3f, want >= 0.98", hr)
	}
}

func TestNarrowRequestsWasteBurst(t *testing.T) {
	m := New(testConfig())
	res := m.Service(contigReads(t, 1<<20, 4)) // 4 MB of 4-byte reads
	// Each 4-byte request occupies a full 64-byte burst.
	if res.BusBytes != res.Bytes*16 {
		t.Errorf("bus bytes = %d, want 16x requested %d", res.BusBytes, res.Bytes)
	}
}

func TestStridedSlowerThanContiguous(t *testing.T) {
	// At line granularity (64 B transactions, what caches and coalescing
	// LSUs emit) a column-major walk must be strongly slower than a
	// contiguous one: every access opens a new row and banks serialize.
	m := New(testConfig())
	elems := 1 << 18 // 16 MB of 64-byte lines
	contig := m.Service(contigReads(t, elems, 64))

	it, err := mem.NewIter(mem.ColMajorPattern(), 0, elems, 64, mem.Read, 0)
	if err != nil {
		t.Fatal(err)
	}
	strided := m.Service(it)

	if strided.Seconds <= contig.Seconds {
		t.Errorf("column-major (%.3g s) must be slower than contiguous (%.3g s)",
			strided.Seconds, contig.Seconds)
	}
	if strided.RowHitRate() > 0.5 {
		t.Errorf("large-stride row hit rate = %.3f, want low", strided.RowHitRate())
	}
	slowdown := strided.Seconds / contig.Seconds
	if slowdown < 1.8 {
		t.Errorf("stride slowdown = %.2fx, want >= 1.8x", slowdown)
	}
}

func TestActivateWindowThrottlesMissStorms(t *testing.T) {
	// A row-miss storm must run strictly slower with the tFAW limit than
	// without it.
	run := func(faw float64) float64 {
		cfg := testConfig()
		cfg.ActWindowNs = faw
		m := New(cfg)
		it, err := mem.NewIter(mem.ColMajorPattern(), 0, 1<<18, 64, mem.Read, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m.Service(it).Seconds
	}
	limited := run(40)
	free := run(0)
	if limited <= free {
		t.Errorf("tFAW-limited run (%.3g s) must be slower than unlimited (%.3g s)",
			limited, free)
	}
}

func TestTurnaroundBatching(t *testing.T) {
	mk := func(batch int) Result {
		cfg := testConfig()
		cfg.BatchSize = batch
		cfg.ReorderWin = 2 * batch
		m := New(cfg)
		w, err := mem.NewKernelWalk(mem.ContiguousPattern(), 1<<16, 64, 64,
			mem.Array{Base: 0, Op: mem.Read, Stream: 0}, mem.Array{Base: 1 << 30, Op: mem.Write, Stream: 1})
		if err != nil {
			t.Fatal(err)
		}
		return m.Service(w)
	}
	batched := mk(16)
	unbatched := mk(1)
	if batched.Turnarounds >= unbatched.Turnarounds {
		t.Errorf("batching must reduce turnarounds: %d (batch16) vs %d (batch1)",
			batched.Turnarounds, unbatched.Turnarounds)
	}
	if batched.Seconds >= unbatched.Seconds {
		t.Errorf("batching must reduce time: %v vs %v", batched.Seconds, unbatched.Seconds)
	}
}

func TestPerStreamPlacementAvoidsTurnaround(t *testing.T) {
	cfg := testConfig()
	cfg.InterleaveBytes = 0 // stream tag picks the channel
	m := New(cfg)
	w, err := mem.NewKernelWalk(mem.ContiguousPattern(), 1<<16, 64, 64,
		mem.Array{Base: 0, Op: mem.Read, Stream: 0}, mem.Array{Base: 0, Op: mem.Write, Stream: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Service(w)
	if res.Turnarounds != 0 {
		t.Errorf("per-stream placement saw %d turnarounds, want 0", res.Turnarounds)
	}
}

func TestChannelScaling(t *testing.T) {
	run := func(channels int) float64 {
		cfg := testConfig()
		cfg.Channels = channels
		m := New(cfg)
		return m.Service(contigReads(t, 1<<19, 64)).RequestedGBps()
	}
	one := run(1)
	two := run(2)
	if two < 1.8*one {
		t.Errorf("2 channels = %.2f GB/s, want ~2x 1 channel (%.2f GB/s)", two, one)
	}
}

func TestBoundedService(t *testing.T) {
	m := New(testConfig())
	res := m.ServiceBounded(contigReads(t, 1<<16, 64), 100)
	if res.Drained {
		t.Error("bounded run must not report drained")
	}
	if res.Txns != 100 {
		t.Errorf("bounded txns = %d, want 100", res.Txns)
	}
	full := m.Service(contigReads(t, 1<<16, 64))
	if !full.Drained || full.Txns != 1<<16 {
		t.Errorf("full run: drained=%v txns=%d", full.Drained, full.Txns)
	}
}

func TestRefreshLossSlowsDown(t *testing.T) {
	base := testConfig()
	base.RefreshLoss = 0
	withLoss := testConfig()
	withLoss.RefreshLoss = 0.10

	t0 := New(base).Service(contigReads(t, 1<<16, 64)).Seconds
	t1 := New(withLoss).Service(contigReads(t, 1<<16, 64)).Seconds
	ratio := t1 / t0
	if ratio < 1.09 || ratio > 1.13 {
		t.Errorf("10%% refresh loss ratio = %.4f, want ~1.111", ratio)
	}
}

func TestInitialLatency(t *testing.T) {
	cfg := testConfig()
	cfg.InitialLatencyNs = 1000
	m := New(cfg)
	res := m.Service(contigReads(t, 16, 64))
	if res.Seconds < 1000e-9 {
		t.Errorf("elapsed %.3g s, must include 1000 ns initial latency", res.Seconds)
	}
}

func TestEmptySource(t *testing.T) {
	m := New(testConfig())
	it, err := mem.NewIter(mem.ContiguousPattern(), 0, 1, 4, mem.Read, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drain it first so the source is empty.
	pull(it)
	res := m.Service(it)
	if res.Txns != 0 || res.Seconds != 0 {
		t.Errorf("empty source result: %+v", res)
	}
	if res.RequestedGBps() != 0 || res.RowHitRate() != 0 {
		t.Error("empty-source rates must be 0")
	}
}

func TestChannelRouting(t *testing.T) {
	cfg := testConfig()
	cfg.HashChannels = false

	// Without hashing, a 4 KB stride (4 interleave blocks, even) camps on
	// one channel.
	m := New(cfg)
	camped := map[int]bool{}
	for i := 0; i < 64; i++ {
		camped[channelOf(m, uint64(i)*4096, 0)] = true
	}
	if len(camped) != 1 {
		t.Errorf("unhashed pow2 stride used %d channels, want 1", len(camped))
	}

	// With hashing the same stride spreads over both channels.
	cfg.HashChannels = true
	m = New(cfg)
	spread := map[int]bool{}
	for i := 0; i < 4096; i++ {
		spread[channelOf(m, uint64(i)*4096, 0)] = true
	}
	if len(spread) != 2 {
		t.Errorf("hashed pow2 stride used %d channels, want 2", len(spread))
	}
}

func TestChannelRoutingPerStream(t *testing.T) {
	cfg := testConfig()
	cfg.InterleaveBytes = 0
	m := New(cfg)
	for stream := uint8(0); stream < 4; stream++ {
		want := int(stream) % cfg.Channels
		if got := channelOf(m, 0xdeadbeef, stream); got != want {
			t.Errorf("stream %d -> channel %d, want %d", stream, got, want)
		}
	}
}

func TestChannelRoutingContiguousAlternates(t *testing.T) {
	cfg := testConfig()
	cfg.HashChannels = false
	// Contiguous blocks alternate channels at InterleaveBytes granularity.
	m := New(cfg)
	counts := map[int]int{}
	for i := 0; i < 128; i++ {
		counts[channelOf(m, uint64(i)*1024, 0)]++
	}
	if counts[0] != 64 || counts[1] != 64 {
		t.Errorf("contiguous interleave uneven: %v", counts)
	}
}

// Property: servicing more elements never takes less time, and byte
// accounting matches the source exactly.
func TestQuickMonotoneInSize(t *testing.T) {
	m := New(testConfig())
	f := func(a, b uint16) bool {
		na, nb := int(a%4096)+1, int(b%4096)+1
		if na > nb {
			na, nb = nb, na
		}
		ra := m.Service(contigReads(t, na, 64))
		rb := m.Service(contigReads(t, nb, 64))
		return ra.Seconds <= rb.Seconds+1e-15 &&
			ra.Bytes == uint64(na)*64 && rb.Bytes == uint64(nb)*64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: determinism — the same source replayed gives identical results.
func TestQuickDeterministic(t *testing.T) {
	m := New(testConfig())
	f := func(n uint16, strided bool) bool {
		elems := int(n%2048) + 1
		p := mem.ContiguousPattern()
		if strided {
			p = mem.StridedPattern(17)
		}
		mk := func() mem.Source {
			it, err := mem.NewIter(p, 4096, elems, 4, mem.Read, 0)
			if err != nil {
				t.Fatal(err)
			}
			return it
		}
		r1 := m.Service(mk())
		r2 := m.Service(mk())
		return r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHashBanksSpreadsPow2RowStrides(t *testing.T) {
	// A stride of exactly banks*rowBytes camps on one bank without
	// hashing; hashing spreads the activations and must run faster.
	run := func(hash bool) float64 {
		cfg := testConfig()
		cfg.HashBanks = hash
		cfg.Channels = 1
		cfg.InterleaveBytes = 0
		m := New(cfg)
		// 64 KB stride = 8 rows: bank index constant when unhashed.
		it, err := mem.NewIter(mem.StridedPattern(1024), 0, 1<<16, 64, mem.Read, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m.Service(it).Seconds
	}
	hashed := run(true)
	unhashed := run(false)
	if hashed >= unhashed {
		t.Errorf("bank hashing must help pow2 row strides: hashed %.3gs vs unhashed %.3gs",
			hashed, unhashed)
	}
}

// serviceLoaded runs the open-loop path the surface runs: each non-nil
// source prerouted, then one ServiceLoadedRouted. A bounded run
// preroutes MaxTxns+1 requests per source — the run's one-request
// lookahead, the surface's own sizing — so Drained still reports
// whether a source ran dry inside the bound; an unbounded run preroutes
// each source whole.
func serviceLoaded(m *Model, bg, probe mem.Source, opts LoadedOptions) LoadedResult {
	const drain = 1 << 16 // larger than any unbounded stream these tests build
	preroute := func(src mem.Source) *Prerouted {
		if src == nil {
			return nil
		}
		n := drain
		if opts.MaxTxns > 0 {
			n = int(opts.MaxTxns + 1)
		}
		return m.Preroute(src, n)
	}
	return m.ServiceLoadedRouted(preroute(bg), preroute(probe), opts)
}

// loadedChase builds a probe chase over elems burst-sized elements.
func loadedChase(t testing.TB, elems, hops int) mem.Source {
	t.Helper()
	ch, err := mem.NewChaseIter(1<<32, elems, 64, hops, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestServiceLoadedIdleProbeLatency(t *testing.T) {
	m := New(testConfig())
	res := serviceLoaded(m, nil, loadedChase(t, 1<<16, 200), LoadedOptions{})
	if res.ProbeTxns != 200 {
		t.Fatalf("probe txns = %d, want 200", res.ProbeTxns)
	}
	// A scattered serial chase misses rows nearly every hop: the idle
	// loaded latency must sit near RowMissNs + burst transfer, far above
	// the pure transfer time and far below a congested latency.
	avg := res.ProbeAvgNs()
	if avg < 40 || avg > 120 {
		t.Errorf("idle probe latency %.1f ns outside the plausible [40,120] window", avg)
	}
	if res.MaxLatencyNs < avg {
		t.Errorf("max latency %.1f below the average %.1f", res.MaxLatencyNs, avg)
	}
}

func TestServiceLoadedLatencyRisesWithInjectionRate(t *testing.T) {
	cfg := testConfig()
	peakGBps := cfg.PeakGBps()
	lat := func(frac float64) float64 {
		m := New(cfg)
		bg := contigReads(t, 1<<16, 64)
		probe := loadedChase(t, 1<<16, 1<<20)
		inter := float64(cfg.BurstBytes) / (frac * peakGBps)
		res := serviceLoaded(m, bg, probe, LoadedOptions{
			InterArrivalNs: inter,
			MaxTxns:        1 << 14,
		})
		if res.ProbeTxns == 0 {
			t.Fatal("no probe hops serviced")
		}
		return res.ProbeAvgNs()
	}
	low, mid, high := lat(0.1), lat(0.6), lat(1.2)
	if !(low < mid && mid < high) {
		t.Errorf("loaded latency not monotone with injection rate: %.1f, %.1f, %.1f ns",
			low, mid, high)
	}
	// Over-saturation must visibly blow the latency up.
	if high < 3*low {
		t.Errorf("saturated latency %.1f ns not clearly above idle %.1f ns", high, low)
	}
}

func TestServiceLoadedAchievedBandwidthSaturates(t *testing.T) {
	cfg := testConfig()
	peak := cfg.PeakGBps()
	achieved := func(frac float64) float64 {
		m := New(cfg)
		bg := contigReads(t, 1<<16, 64)
		inter := float64(cfg.BurstBytes) / (frac * peak)
		res := serviceLoaded(m, bg, nil, LoadedOptions{InterArrivalNs: inter, MaxTxns: 1 << 14})
		return res.RequestedGBps()
	}
	low := achieved(0.2)
	want := 0.2 * peak
	if low < 0.8*want || low > 1.05*want {
		t.Errorf("under low load achieved %.2f GB/s, want about the offered %.2f", low, want)
	}
	over := achieved(2.0)
	if over > peak {
		t.Errorf("achieved %.2f GB/s exceeds the %.2f GB/s peak", over, peak)
	}
	if over < low {
		t.Errorf("saturated bandwidth %.2f below low-load bandwidth %.2f", over, low)
	}
}

func TestServiceLoadedOccupancyAndDeterminism(t *testing.T) {
	cfg := testConfig()
	run := func() LoadedResult {
		m := New(cfg)
		bg := contigReads(t, 1<<13, 64)
		probe := loadedChase(t, 1<<16, 256)
		return serviceLoaded(m, bg, probe, LoadedOptions{InterArrivalNs: 8})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("open-loop service is not deterministic: %+v vs %+v", a, b)
	}
	if a.AvgOccupancy() <= 0 {
		t.Errorf("occupancy %.3f must be positive", a.AvgOccupancy())
	}
	if !a.Drained {
		t.Error("unbounded run must drain both sources")
	}
	if a.Txns != 1<<13+256 || a.Bytes == 0 {
		t.Errorf("unexpected result: %+v", a.Result)
	}
	if a.AvgLatencyNs() <= 0 || a.ProbeAvgNs() <= 0 {
		t.Errorf("latencies must be positive: %+v", a)
	}
}

func TestServiceLoadedMaxTxnsBounds(t *testing.T) {
	m := New(testConfig())
	res := serviceLoaded(m, contigReads(t, 1<<14, 64), nil, LoadedOptions{
		InterArrivalNs: 4, MaxTxns: 100,
	})
	if res.Txns != 100 {
		t.Errorf("serviced %d txns, want 100", res.Txns)
	}
	if res.Drained {
		t.Error("bounded run must not report drained")
	}
}

func TestServiceLoadedEmpty(t *testing.T) {
	m := New(testConfig())
	res := serviceLoaded(m, nil, nil, LoadedOptions{})
	if res.Txns != 0 || res.Seconds != 0 {
		t.Errorf("empty run produced %+v", res.Result)
	}
}

func TestServiceLoadedWarmupExcludedFromOccupancy(t *testing.T) {
	cfg := testConfig()
	run := func(warmup uint64) LoadedResult {
		m := New(cfg)
		return serviceLoaded(m, contigReads(t, 1<<14, 64), nil, LoadedOptions{
			InterArrivalNs: 3,
			MaxTxns:        8192,
			WarmupTxns:     warmup,
		})
	}
	warm := run(2048)
	if warm.MeasuredTxns != 8192-2048 {
		t.Errorf("measured %d txns, want %d", warm.MeasuredTxns, 8192-2048)
	}
	if warm.MeasuredSpanNs <= 0 || warm.MeasuredSpanNs >= warm.Seconds*1e9 {
		t.Errorf("measured span %.1f ns must be positive and below the full run %.1f ns",
			warm.MeasuredSpanNs, warm.Seconds*1e9)
	}
	// Occupancy over the measured span must agree with the steady state
	// a warmup-free run reports, not be diluted by the excluded quarter.
	cold := run(0)
	ratio := warm.AvgOccupancy() / cold.AvgOccupancy()
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("warmup skews occupancy: %.3f vs %.3f (ratio %.2f)",
			warm.AvgOccupancy(), cold.AvgOccupancy(), ratio)
	}
}

func TestServiceLoadedNaNInterArrivalTerminates(t *testing.T) {
	// A NaN spacing leaves every background arrival after the first
	// unordered against the probe's. The merge must still issue one
	// transaction per iteration and stop at the bound.
	m := New(testConfig())
	opts := LoadedOptions{InterArrivalNs: math.NaN(), MaxTxns: 512}
	res := serviceLoaded(m, contigReads(t, 1<<14, 64), loadedChase(t, 1<<16, 1<<12), opts)
	if res.Txns != opts.MaxTxns {
		t.Errorf("serviced %d txns, want %d", res.Txns, opts.MaxTxns)
	}
}
