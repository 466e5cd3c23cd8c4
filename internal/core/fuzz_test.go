package core

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
)

// Property: any structurally valid configuration either runs to a
// verified result with sane invariants, or is rejected by the device's
// compiler (FPGA fit / toolchain rules) — never a panic, never an
// unverified success, never a bandwidth above the device peak.
func TestQuickRandomConfigsAllTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("random-config sweep is slow")
	}
	devs := targets.All()
	f := func(devSel, opSel, dtSel, vwSel, loopSel, patSel uint8, sizeSel uint16, unrollSel uint8) bool {
		dev := devs[int(devSel)%len(devs)]
		cfg := DefaultConfig()
		cfg.NTimes = 1
		cfg.Ops = []kernel.Op{kernel.Ops()[int(opSel)%4]}
		cfg.Type = kernel.DataTypes()[int(dtSel)%2]
		cfg.VecWidth = []int{1, 2, 4, 8, 16}[int(vwSel)%5]
		cfg.OptimalLoop = false
		cfg.Loop = kernel.LoopModes()[int(loopSel)%3]
		switch patSel % 3 {
		case 0:
			cfg.Pattern = mem.ContiguousPattern()
		case 1:
			cfg.Pattern = mem.StridedPattern(int(patSel%7) + 1)
		case 2:
			cfg.Pattern = mem.ColMajorPattern()
		}
		if cfg.Loop != kernel.NDRange {
			cfg.Attrs.Unroll = 1 << (unrollSel % 4)
		}
		// Element-aligned sizes from 16 KB to 2 MB.
		elemB := int64(cfg.Type.Bytes()) * int64(cfg.VecWidth)
		cfg.ArrayBytes = (int64(sizeSel%128) + 1) * 16384
		cfg.ArrayBytes -= cfg.ArrayBytes % elemB
		if cfg.ArrayBytes == 0 {
			cfg.ArrayBytes = elemB * 1024
		}

		res, err := Run(dev, cfg)
		if err != nil {
			// Rejection is fine (fit failures etc.); crashes are not.
			return true
		}
		kr := res.Kernel(cfg.Ops[0])
		if kr == nil || !kr.Verified || kr.BestSeconds <= 0 {
			return false
		}
		// Simulated bandwidth can never exceed the device's memory peak
		// by more than the STREAM-counting slack (cache-resident runs may
		// exceed DRAM peak; allow 4x headroom for those).
		return kr.GBps > 0 && kr.GBps < 4*res.Device.PeakMemGBps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzConfigValidate decodes arbitrary JSON into a Config. Validate
// must never panic, and a small configuration it accepts must run on
// the cpu target without panicking, reporting finite, positive
// bandwidths (the device may still reject it at Compile).
func FuzzConfigValidate(f *testing.F) {
	for _, seed := range []string{
		`{"array_bytes":4096,"vec_width":1073741824}`, // element size wraps to 0
		`{"array_bytes":4096,"type":"double","vec_width":536870912}`,
		`{"array_bytes":65536,"vec_width":16,"loop":"flat","attrs":{"unroll":4},"ntimes":2}`,
		`{"array_bytes":8192,"optimal_loop":true,"pattern":{"kind":"strided","stride_elems":4},"verify":true}`,
		`{"array_bytes":16384,"type":"double","pattern":{"kind":"colmajor"},"loop":"nested","optimal_loop":false}`,
		`{"array_bytes":4096,"ops":["triad"],"host_io":true,"ntimes":1}`,
		`{"array_bytes":-8,"ntimes":-1}`,
	} {
		f.Add([]byte(seed))
	}
	dev := cpusim.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if json.Unmarshal(data, &cfg) != nil {
			return
		}
		if cfg.Validate() != nil || cfg.ArrayBytes > 64<<10 || cfg.NTimes > 3 {
			return
		}
		res, err := Run(dev, cfg)
		if err != nil {
			return
		}
		for _, kr := range res.Kernels {
			if math.IsInf(kr.GBps, 0) || math.IsNaN(kr.GBps) || kr.GBps <= 0 {
				t.Errorf("%s: %v GB/s", kr.Kernel, kr.GBps)
			}
		}
	})
}
