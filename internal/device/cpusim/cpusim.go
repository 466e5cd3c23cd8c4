// Package cpusim models the paper's CPU target: an Intel Xeon E5-2609 v2
// (4 cores, 2.5 GHz, 10 MB shared L3, 4x DDR3 channels, 34 GB/s peak)
// running an OpenCL CPU runtime.
//
// The mechanisms that shape the CPU's MP-STREAM behaviour:
//
//   - NDRange kernels fan out across all cores and are auto-vectorized,
//     so the OpenCL vector-width knob barely matters (the flat CPU series
//     of Figure 1(b));
//   - the shared L3 keeps 4 MB arrays resident, which is why the paper's
//     4 MB points sit above the DRAM plateau; past ~10 MB of footprint
//     the LRU stream misses everything and DDR3 sets the pace;
//   - the runtime uses non-temporal (streaming) stores, so copy moves 2x
//     bytes rather than the 3x a read-for-ownership write-allocate would
//     cost; streaming stores drain through write-combining buffers at
//     their own finite rate;
//   - per-core line-fill buffers bound memory-level parallelism: at most
//     cores x LFBs line fetches overlap, the Little's-law ceiling on
//     sustained DRAM bandwidth;
//   - a strided walk touches a full 64-byte line per word: cache-resident
//     it burns L3<->L1 line transfers (the interior strided bump of
//     Figure 2), DRAM-resident it pays burst-granularity waste plus row
//     thrash (the 0.8 GB/s tail);
//   - a single work-item kernel runs one scalar loop on one core.
package cpusim

import (
	"math"

	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/link"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// Config collects the CPU device model tunables.
type Config struct {
	DRAM dram.Config
	LLC  cache.Config
	Loop link.Config // host "link": the device is the host

	MemBytes          int64
	LaunchOverheadSec float64

	Cores                  int
	LFBsPerCore            int     // line-fill buffers (outstanding misses) per core
	DRAMLatencyNs          float64 // load-to-use latency for a DRAM miss
	LLCGBps                float64 // L3 line-transfer bandwidth to the cores
	WCWriteGBps            float64 // streaming-store drain rate through WC buffers
	SingleThreadGBps       float64 // flat single work-item loop ceiling
	SingleThreadNestedGBps float64 // nested variant (outer-loop overhead)

	SampleWindowTxns uint64
}

// DefaultConfig returns the calibrated Xeon E5-2609 v2 model.
func DefaultConfig() Config {
	return Config{
		DRAM: dram.Config{
			Name:            "cpu-ddr3",
			Channels:        4,
			BanksPerChannel: 8,
			RowBytes:        8192,
			BurstBytes:      64,
			BusGBps:         8.53, // DDR3-1066 x 64-bit per channel
			RowMissNs:       48,
			TurnaroundNs:    6,
			BatchSize:       16,
			ActWindowNs:     50,
			ActsPerWindow:   4,
			RefreshLoss:     0.035,
			InterleaveBytes: 256,
			HashChannels:    true,
		},
		LLC: cache.Config{
			Name:              "xeon-l3",
			CapacityBytes:     10 << 20,
			LineBytes:         64,
			Ways:              20,
			NonTemporalWrites: true,
			HashSets:          true, // sliced LLC with hashed addressing
		},
		Loop: link.Config{
			Name:      "host-loopback",
			GBps:      10,
			LatencyUs: 0.5,
			SetupUs:   1.5,
		},
		MemBytes:               64 << 30,
		LaunchOverheadSec:      38e-6,
		Cores:                  4,
		LFBsPerCore:            10,
		DRAMLatencyNs:          99,
		LLCGBps:                42,
		WCWriteGBps:            16,
		SingleThreadGBps:       3.5,
		SingleThreadNestedGBps: 3.2,
		SampleWindowTxns:       1 << 21,
	}
}

// Device is the CPU target.
type Device struct {
	device.Board
	cfg Config
}

// New builds the device with the default configuration.
func New() *Device { return NewWithConfig(DefaultConfig()) }

// NewWithConfig builds the device with an explicit configuration. Host
// and device coincide, so its link is memcpy-speed loopback; Reset
// leaves the LLC cold.
func NewWithConfig(cfg Config) *Device {
	info := device.Info{
		ID:          "cpu",
		Description: "Intel Xeon E5-2609 v2 (4C/2.5GHz, 10 MB L3), OpenCL CPU runtime [simulated]",
		Kind:        device.CPU,
		OptimalLoop: kernel.NDRange,
		IdleWatts:   38,
		PeakWatts:   95, // 80 W TDP package plus DIMMs
	}
	return &Device{cfg: cfg, Board: device.NewBoard(info, cfg.MemBytes, cfg.DRAM, cfg.Loop,
		cfg.LaunchOverheadSec, cfg.SampleWindowTxns, &cfg.LLC, true)}
}

// coreConcurrencyGBps is the Little's-law ceiling on DRAM traffic: each
// core keeps at most LFBsPerCore line fetches in flight.
func (d *Device) coreConcurrencyGBps(cores int) float64 {
	return float64(cores) * float64(d.cfg.LFBsPerCore) * 64 / d.cfg.DRAMLatencyNs
}

// plan is a compiled CPU kernel.
type plan struct {
	device.Plan
	dev    *Device
	window uint32 // write-combining coalescer window
}

// Compile implements device.Device. The CPU runtime ignores FPGA vendor
// attributes, like any OpenCL compiler faced with unknown annotations.
func (d *Device) Compile(k kernel.Kernel) (device.Compiled, error) {
	if err := d.CheckKernel(k); err != nil {
		return nil, err
	}
	return &plan{Plan: device.Plan{K: k}, dev: d, window: max(d.cfg.LLC.LineBytes, k.ElemBytes())}, nil
}

// parallelism returns how many cores run the kernel and the single
// work-item issue ceiling in GB/s (0 = none).
func (p *plan) parallelism() (cores int, threadCap float64) {
	cfg := p.dev.cfg
	switch p.K.Loop {
	case kernel.FlatLoop:
		return 1, cfg.SingleThreadGBps
	case kernel.NestedLoop:
		return 1, cfg.SingleThreadNestedGBps
	}
	return cfg.Cores, 0
}

// Seconds implements device.Compiled: it predicts one invocation over
// e. An exact run sees the LLC the previous invocation left warm, so
// the board simulates every repetition of it, unless the run flushed
// the LLC itself; it answers a repeated sampled one without simulating
// (device.Board.Sample).
func (p *plan) Seconds(e device.Exec) (float64, error) {
	k := p.K
	if err := p.dev.CheckExec(k, e); err != nil {
		return 0, err
	}
	est, err := p.dev.Sample(k, e, p.window, p.run)
	if err != nil {
		return 0, err
	}

	sec := est.Seconds
	if _, threadCap := p.parallelism(); threadCap > 0 {
		totalBytes := float64(k.Op.Streams()) * float64(e.ArrayBytes)
		sec = math.Max(sec, totalBytes/(threadCap*1e9))
	}
	return sec, nil
}

// run is the plan's device.Body, the memory path: word stream,
// write-combining coalescer, LLC, DDR3. The board starts sampled
// windows from a cold LLC; they only occur for footprints far beyond
// it, where cold == steady.
func (p *plan) run(src mem.Source, window uint64, llc *cache.Cache) (short, long sample.Measurement) {
	s, l := p.dev.ServiceCache(src, window, llc)
	return p.measure(s), p.measure(l)
}

// measure bounds a run's DRAM time by the cores' other limits.
func (p *plan) measure(r device.CacheRun) sample.Measurement {
	cfg := p.dev.cfg
	cores, _ := p.parallelism()
	sec := r.DRAM.Seconds
	// L3->core line traffic.
	if l3 := float64(r.Cache.L1TransferBytes(cfg.LLC.LineBytes)) / (cfg.LLCGBps * 1e9); l3 > sec {
		sec = l3
	}
	// Streaming stores drain through WC buffers.
	if wc := float64(r.Cache.BypassBytes) / (cfg.WCWriteGBps * 1e9); wc > sec {
		sec = wc
	}
	// Line-fill-buffer concurrency bounds all DRAM traffic.
	if core := float64(r.DRAM.Bytes) / (p.dev.coreConcurrencyGBps(cores) * 1e9); core > sec {
		sec = core
	}
	return sample.Measurement{Txns: r.Cache.Accesses, Seconds: sec}
}
