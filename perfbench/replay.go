package main

import (
	"time"

	"mpstream/internal/cl"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/gpusim"
	"mpstream/internal/device/sdaccel"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
	"mpstream/internal/surface"
)

// The replays below time the calls into each layer from outside the
// program: they repeat, with a timer around each public call, the steps
// a unit's own call made without one. They run after the profiled pass.

// replayRun replays the steps core.Run takes for cfg on dev: buffers
// (cl), kernel builds and timing (device), the functional kernel (cl),
// verification (core), and the memory pipeline behind each timing
// (mem, cache, dram, sample). It times one core.Run of its own just
// before, so whatever the timed steps do not cover, core's self time,
// is measured under the same host conditions. cfg must have its
// defaults resolved (explicit Ops, NTimes and Scalar).
func replayRun(tr *tracer, dev device.Device, cfg core.Config) {
	t0 := time.Now()
	if _, err := core.Run(dev, cfg); err != nil {
		return
	}
	run := time.Since(t0)

	dev.Reset()
	clctx := cl.CreateContext(dev)
	clctx.Functional = cfg.Verify
	elems := int(cfg.ArrayBytes / int64(cfg.Type.Bytes()))
	t0 = time.Now()
	a, errA := clctx.CreateBuffer(cfg.Type, elems)
	b, errB := clctx.CreateBuffer(cfg.Type, elems)
	c, errC := clctx.CreateBuffer(cfg.Type, elems)
	if errA != nil || errB != nil || errC != nil {
		return
	}
	b.Fill(core.BInit)
	c.Fill(core.CInit)
	children := time.Since(t0)
	tr.addMS("cl.buffer_ms", children)
	if cfg.Verify {
		tr.add("cl.alloc_mb", 3*float64(cfg.ArrayBytes)/(1<<20))
	}

	id := dev.Info().ID
	exec := device.Exec{ArrayBytes: cfg.ArrayBytes, Pattern: cfg.Pattern}
	for _, op := range cfg.Ops {
		loop := cfg.Loop
		if cfg.OptimalLoop {
			loop = dev.Info().OptimalLoop
		}
		spec := kernel.Kernel{Op: op, Type: cfg.Type, VecWidth: cfg.VecWidth, Loop: loop, Attrs: cfg.Attrs}
		t := time.Now()
		compiled, err := dev.Compile(spec)
		d := time.Since(t)
		tr.addMS("device.compile_ms", d)
		children += d
		if err != nil {
			continue
		}
		// core.Run times and, when verifying, executes the kernel once
		// per repetition; the repetitions after the first can run warm.
		for iter := 0; iter < cfg.NTimes && err == nil; iter++ {
			t = time.Now()
			_, err = compiled.Seconds(exec)
			d = time.Since(t)
			tr.addMS("device.seconds_ms."+id, d)
			children += d
			if err == nil && cfg.Verify {
				t = time.Now()
				err = applyKernel(op, cfg.Scalar, a, b, c)
				d = time.Since(t)
				tr.addMS("cl.apply_ms", d)
				children += d
			}
		}
		if err != nil {
			continue
		}
		if cfg.Verify {
			t = time.Now()
			_ = core.VerifySlice(a.Data(), kernel.Expected(op, cfg.Scalar, core.BInit, core.CInit), 0)
			d = time.Since(t)
			tr.addMS("core.verify_ms", d)
			children += d
		}
		replayPipeline(tr, id, spec, exec)
	}
	tr.addMS("core.self_ms", run-children)
}

// applyKernel runs op functionally over the buffers, as the cl runtime
// does when it enqueues a kernel on a functional context.
func applyKernel(op kernel.Op, q float64, a, b, c *cl.Buffer) error {
	twoInputs := op.InputStreams() == 2
	if a.Type() == kernel.Float64 {
		var in2 []float64
		if twoInputs {
			in2 = c.Float64s()
		}
		return kernel.ApplyFloat64(op, q, a.Float64s(), b.Float64s(), in2)
	}
	var in2 []int32
	if twoInputs {
		in2 = c.Int32s()
	}
	return kernel.ApplyInt32(op, q, a.Int32s(), b.Int32s(), in2)
}

// pipeline is the memory path a device model drives for one kernel:
// the request stream coalesced to window bytes, an optional cache
// level, the DRAM controller, and the sampling window.
type pipeline struct {
	window  uint32
	llc     *cache.Config // nil: the stream goes straight to DRAM
	dram    dram.Config
	sampleW uint64
}

// pipelineFor rebuilds, from each target's public default
// configuration, the memory path its Compiled.Seconds simulates; ok is
// false for kernels whose time the model computes without simulating
// memory (single work-item GPU kernels, latency-bound SDAccel loops).
func pipelineFor(id string, k kernel.Kernel, e device.Exec) (p pipeline, ok bool) {
	elemB := k.ElemBytes()
	unitStride := e.Pattern.EffectiveStrideElems(e.Elems(k)) == 1
	switch id {
	case "cpu":
		cfg := cpusim.DefaultConfig()
		p = pipeline{window: max(cfg.LLC.LineBytes, elemB), llc: &cfg.LLC, dram: cfg.DRAM, sampleW: cfg.SampleWindowTxns}
		return p, true
	case "gpu":
		cfg := gpusim.DefaultConfig()
		if k.Loop != kernel.NDRange {
			return p, false
		}
		p = pipeline{window: elemB, llc: &cfg.L2, dram: cfg.DRAM, sampleW: cfg.SampleWindowTxns}
		if unitStride && cfg.CoalesceBytes > elemB {
			p.window = cfg.CoalesceBytes
		}
		return p, true
	case "aocl":
		cfg := aocl.DefaultConfig()
		p = pipeline{window: cfg.LSUBurstBytes, dram: cfg.DRAM, sampleW: cfg.SampleWindowTxns}
		if k.Loop == kernel.NDRange {
			p.window = max(cfg.NDRangeBurstBytes, elemB*uint32(max(k.Attrs.NumSIMDWorkItems, 1)))
		}
		return p, true
	case "sdaccel":
		cfg := sdaccel.DefaultConfig()
		p = pipeline{window: elemB, dram: cfg.DRAM, sampleW: cfg.SampleWindowTxns}
		switch k.Loop {
		case kernel.NestedLoop:
			if !unitStride {
				return p, false
			}
			p.window = cfg.BurstBytes
		case kernel.FlatLoop:
			if !k.Attrs.PipelineLoop || !unitStride {
				return p, false
			}
		}
		return p, true
	}
	return p, false
}

// drainBuf is the batch size the replays drain sources with.
const drainBuf = 256

// drain pulls src dry and returns the number of requests it yielded.
func drain(src mem.Source) uint64 {
	var buf [drainBuf]mem.Request
	var n uint64
	for {
		k := mem.Fill(src, buf[:])
		if k == 0 {
			return n
		}
		n += uint64(k)
	}
}

// replayPipeline replays the memory simulation behind one
// Compiled.Seconds call through sample.Run, timing each layer's self
// time: the generator alone (mem), the generator through the cache's
// miss filter (cache, minus mem), and the full path into the DRAM
// controller (dram, minus both). Caches start cold in every window.
func replayPipeline(tr *tracer, id string, k kernel.Kernel, e device.Exec) {
	p, ok := pipelineFor(id, k, e)
	if !ok {
		return
	}
	elems, elemB := e.Elems(k), k.ElemBytes()
	model := dram.New(p.dram)
	var llc *cache.Cache
	if p.llc != nil {
		llc = cache.New(*p.llc)
	}
	if _, err := device.KernelSource(k.Op, elems, elemB, e.Pattern, p.window); err != nil {
		return
	}
	source := func(limit uint64) mem.Source {
		src, _ := device.KernelSource(k.Op, elems, elemB, e.Pattern, p.window) // validated above
		if limit > 0 {
			return mem.NewLimit(src, int(limit))
		}
		return src
	}
	var simTxns uint64
	window := func(maxTxns uint64) sample.Measurement {
		t := time.Now()
		txns := drain(source(maxTxns))
		memD := time.Since(t)
		tr.add("mem.ns", float64(memD))
		tr.add("mem.txns", float64(txns))

		var res dram.Result
		var upstream time.Duration // generator (+ cache) time inside the full path
		if llc != nil {
			llc.Reset()
			t = time.Now()
			drain(cache.NewMissFilter(llc, source(maxTxns)))
			upstream = time.Since(t)
			st := llc.Stats()
			tr.add("cache.ns", float64(upstream-memD))
			tr.add("cache.accesses", float64(st.Accesses))
			tr.add("cache.hits", float64(st.Hits))
			txns = st.Accesses
			llc.Reset()
			t = time.Now()
			res = model.Service(cache.NewMissFilter(llc, source(maxTxns)))
		} else {
			upstream = memD
			t = time.Now()
			res = model.ServiceBounded(source(0), maxTxns)
			txns = res.Txns
		}
		tr.add("dram.service_ns", float64(time.Since(t)-upstream))
		tr.add("dram.service_txns", float64(res.Txns))
		addDRAM(tr, res)
		simTxns += txns
		return sample.Measurement{Txns: txns, Seconds: res.Seconds}
	}
	total := device.TxnCount(k.Op, elems, elemB, e.Pattern, p.window)
	est, err := sample.Run(window, total, p.sampleW)
	if err == nil && est.Sampled {
		tr.add("sample.sampled_points", 1)
		tr.add("sample.sim_txns", float64(simTxns))
		tr.add("sample.rep_txns", float64(total))
	}
}

// addDRAM records a DRAM result's simulated counters.
func addDRAM(tr *tracer, res dram.Result) {
	tr.add("dram.txns", float64(res.Txns))
	tr.add("dram.row_hits", float64(res.RowHits))
	tr.add("dram.row_accesses", float64(res.RowHits+res.RowMisses))
	tr.add("dram.turnarounds", float64(res.Turnarounds))
}

// replayLoaded replays the open-loop DRAM path of one surface
// measurement: each curve's background walk and probe chase decoded
// once (Preroute), then serviced at the ladder's top rung
// (ServiceLoadedRouted).
func replayLoaded(tr *tracer, dev device.Device, cfg surface.Config) {
	memSys, ok := dev.(device.MemorySystem)
	if !ok {
		return
	}
	cfg = cfg.WithDefaults()
	model := memSys.MemModel().Clone()
	mc := model.Config()
	burst := mc.BurstBytes
	elems := int(cfg.ArrayBytes / int64(burst))
	top := cfg.Rates[len(cfg.Rates)-1]
	inter := float64(burst) / (top * dev.Info().PeakMemGBps)
	for _, pat := range cfg.Patterns {
		for _, frac := range cfg.RWRatios {
			reads, errR := mem.NewIter(pat, 1<<31, elems, burst, mem.Read, 1)
			writes, errW := mem.NewIter(pat, 0, elems, burst, mem.Write, 0)
			probe, errP := mem.NewChaseIter(3<<31, elems, burst, cfg.WindowTxns, 3)
			if errR != nil || errW != nil || errP != nil {
				continue
			}
			bg := mem.NewMix(reads, writes, frac, mc.BatchSize*mc.Channels)
			t := time.Now()
			pb := model.Preroute(bg, cfg.WindowTxns)
			pp := model.Preroute(probe, cfg.WindowTxns)
			tr.add("dram.preroute_ns", float64(time.Since(t)))
			tr.add("dram.preroute_txns", float64(pb.Len()+pp.Len()))
			t = time.Now()
			res := model.ServiceLoadedRouted(pb, pp, dram.LoadedOptions{InterArrivalNs: inter, MaxTxns: uint64(cfg.WindowTxns)})
			tr.add("dram.loaded_ns", float64(time.Since(t)))
			tr.add("dram.loaded_txns", float64(res.Txns))
			addDRAM(tr, res.Result)
		}
	}
}
