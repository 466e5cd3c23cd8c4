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
	"fmt"
	"math"

	"mpstream/internal/device"
	"mpstream/internal/fabric"
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
	cfg Config
	mem *dram.Model
	llc *cache.Cache
	lnk *link.Link
}

// New builds the device with the default configuration.
func New() *Device { return NewWithConfig(DefaultConfig()) }

// NewWithConfig builds the device with an explicit configuration.
func NewWithConfig(cfg Config) *Device {
	return &Device{
		cfg: cfg,
		mem: dram.New(cfg.DRAM),
		llc: cache.New(cfg.LLC),
		lnk: link.New(cfg.Loop),
	}
}

// Info implements device.Device.
func (d *Device) Info() device.Info {
	return device.Info{
		ID:          "cpu",
		Description: "Intel Xeon E5-2609 v2 (4C/2.5GHz, 10 MB L3), OpenCL CPU runtime [simulated]",
		Kind:        device.CPU,
		PeakMemGBps: d.cfg.DRAM.PeakGBps(),
		MemBytes:    d.cfg.MemBytes,
		OptimalLoop: kernel.NDRange,
		IdleWatts:   38,
		PeakWatts:   95, // 80 W TDP package plus DIMMs
	}
}

// LaunchOverheadSeconds implements device.Device.
func (d *Device) LaunchOverheadSeconds() float64 { return d.cfg.LaunchOverheadSec }

// Link implements device.Device. Host and device coincide, so "transfers"
// are memcpy-speed loopback.
func (d *Device) Link() *link.Link { return d.lnk }

// Reset implements device.Device: cold caches.
func (d *Device) Reset() { d.llc.Reset() }

// MemModel implements device.MemorySystem: the DDR3 subsystem the
// surface layer probes for loaded latency.
func (d *Device) MemModel() *dram.Model { return d.mem }

// coreConcurrencyGBps is the Little's-law ceiling on DRAM traffic: each
// core keeps at most LFBsPerCore line fetches in flight.
func (d *Device) coreConcurrencyGBps(cores int) float64 {
	return float64(cores) * float64(d.cfg.LFBsPerCore) * 64 / d.cfg.DRAMLatencyNs
}

// plan is a compiled CPU kernel.
type plan struct {
	dev    *Device
	k      kernel.Kernel
	window uint32 // write-combining coalescer window
	memo   device.Memo
}

// Compile implements device.Device. The CPU runtime ignores FPGA vendor
// attributes, like any OpenCL compiler faced with unknown annotations.
func (d *Device) Compile(k kernel.Kernel) (device.Compiled, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if k.Op == kernel.Chase {
		return nil, fmt.Errorf("cpu: chase is a latency probe, not a throughput kernel; run it through the surface subsystem")
	}
	return &plan{dev: d, k: k, window: max(d.cfg.LLC.LineBytes, k.ElemBytes())}, nil
}

// Kernel implements device.Compiled.
func (p *plan) Kernel() kernel.Kernel { return p.k }

// Resources implements device.Compiled: not an FPGA.
func (p *plan) Resources() (fabric.Resources, bool) { return fabric.Resources{}, false }

// FmaxMHz implements device.Compiled: not an FPGA.
func (p *plan) FmaxMHz() (float64, bool) { return 0, false }

// Seconds implements device.Compiled. An exact run sees the LLC the
// previous invocation left warm, so every repetition is simulated. A
// sampled run's windows start cold, so its answer depends on e alone
// and repeated invocations reuse the first one.
func (p *plan) Seconds(e device.Exec) (float64, error) {
	if err := e.Validate(p.k); err != nil {
		return 0, err
	}
	if sample.Exact(p.txns(e), p.dev.cfg.SampleWindowTxns) {
		return p.simulate(e)
	}
	return p.memo.Do(e, p.simulate)
}

// txns counts the transactions one invocation over e issues.
func (p *plan) txns(e device.Exec) uint64 {
	return device.TxnCount(p.k.Op, e.Elems(p.k), p.k.ElemBytes(), e.Pattern, p.window)
}

// simulate predicts one invocation over a validated e.
func (p *plan) simulate(e device.Exec) (float64, error) {
	k := p.k
	cfg := p.dev.cfg
	if need := int64(k.Op.Streams()) * e.ArrayBytes; need > cfg.MemBytes {
		return 0, fmt.Errorf("cpu: %d bytes exceed memory %d", need, cfg.MemBytes)
	}
	elems := e.Elems(k)
	elemB := k.ElemBytes()

	cores := cfg.Cores
	var threadCap float64 // single work-item issue ceiling, 0 = none
	switch k.Loop {
	case kernel.FlatLoop:
		cores, threadCap = 1, cfg.SingleThreadGBps
	case kernel.NestedLoop:
		cores, threadCap = 1, cfg.SingleThreadNestedGBps
	}

	// Memory path: word stream, write-combining coalescer, LLC, DDR3.
	if _, err := device.KernelSource(k.Op, elems, elemB, e.Pattern, p.window); err != nil {
		return 0, fmt.Errorf("cpu: %s: %w", k.Name(), err)
	}
	runner := func(maxTxns uint64) sample.Measurement {
		src, _ := device.KernelSource(k.Op, elems, elemB, e.Pattern, p.window) // checked above
		bounded := mem.Source(src)
		if maxTxns > 0 {
			bounded = mem.NewLimit(src, int(maxTxns))
			// Sampled windows start cold; they only occur for
			// footprints far beyond the LLC, where cold == steady.
			p.dev.llc.Reset()
		}
		before := p.dev.llc.Stats()
		res := p.dev.mem.Service(cache.NewMissFilter(p.dev.llc, bounded))
		st := p.dev.llc.Stats().Delta(before)

		sec := res.Seconds
		// L3->core line traffic.
		if l3 := float64(st.L1TransferBytes(cfg.LLC.LineBytes)) / (cfg.LLCGBps * 1e9); l3 > sec {
			sec = l3
		}
		// Streaming stores drain through WC buffers.
		if wc := float64(st.BypassBytes) / (cfg.WCWriteGBps * 1e9); wc > sec {
			sec = wc
		}
		// Line-fill-buffer concurrency bounds all DRAM traffic.
		if core := float64(res.Bytes) / (p.dev.coreConcurrencyGBps(cores) * 1e9); core > sec {
			sec = core
		}
		return sample.Measurement{Txns: st.Accesses, Seconds: sec}
	}

	est, err := sample.Run(runner, p.txns(e), cfg.SampleWindowTxns)
	if err != nil {
		return 0, fmt.Errorf("cpu: %s: %w", k.Name(), err)
	}

	sec := est.Seconds
	if threadCap > 0 {
		totalBytes := float64(k.Op.Streams()) * float64(e.ArrayBytes)
		sec = math.Max(sec, totalBytes/(threadCap*1e9))
	}
	return sec, nil
}
