package dse

import (
	"math"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
)

func base() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ops = []kernel.Op{kernel.Copy}
	cfg.ArrayBytes = 1 << 20
	cfg.NTimes = 2
	return cfg
}

func dev(t *testing.T, id string) device.Device {
	t.Helper()
	d, err := targets.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSweepSizes(t *testing.T) {
	sizes := []int64{1 << 18, 1 << 20, 1 << 22}
	pts := SweepSizes(dev(t, "gpu"), base(), sizes)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
		if p.Config.ArrayBytes != sizes[i] {
			t.Errorf("point %d size = %d", i, p.Config.ArrayBytes)
		}
		if p.GBps(kernel.Copy) <= 0 {
			t.Errorf("point %d has no bandwidth", i)
		}
	}
	// Bandwidth grows with size in the overhead-dominated regime.
	if !(pts[0].GBps(kernel.Copy) < pts[2].GBps(kernel.Copy)) {
		t.Error("size sweep must rise in the latency-bound regime")
	}
}

// slice measures a one-axis Space over base on one target and returns
// the copy bandwidth of each grid point, in grid order.
func slice(t *testing.T, id string, base core.Config, s Space) []float64 {
	t.Helper()
	d := dev(t, id)
	var g []float64
	for _, cfg := range s.Configs(base) {
		p := run(d, cfg, ConfigLabel(cfg))
		if p.Err != nil {
			t.Fatalf("%s: %v", p.Label, p.Err)
		}
		g = append(g, p.GBps(kernel.Copy))
	}
	return g
}

func TestSweepVecWidths(t *testing.T) {
	g := slice(t, "aocl", base(), Space{VecWidths: []int{1, 2, 4, 8, 16}})
	if len(g) != 5 {
		t.Fatalf("got %d points", len(g))
	}
	if !(g[0] < g[3]) {
		t.Error("AOCL vectorization must help")
	}
}

func TestSweepLoopModes(t *testing.T) {
	loops := []kernel.LoopMode{kernel.NDRange, kernel.FlatLoop, kernel.NestedLoop}
	g := slice(t, "sdaccel", base(), Space{Loops: loops})
	if len(g) != 3 {
		t.Fatalf("got %d points", len(g))
	}
	if !(g[2] > g[0] && g[0] > g[1]) {
		t.Errorf("sdaccel loop ordering wrong: ndrange %g, flat %g, nested %g", g[0], g[1], g[2])
	}
}

func TestSweepSIMDAndCU(t *testing.T) {
	ns := []int{1, 2, 4}
	nd := base()
	nd.OptimalLoop = false
	nd.Loop = kernel.NDRange
	wg := nd
	wg.Attrs.ReqdWorkGroupSize = 256
	simd := slice(t, "aocl", wg, Space{SIMDs: ns})
	cu := slice(t, "aocl", nd, Space{CUs: ns})
	if !(simd[2] > simd[0]) {
		t.Error("SIMD must help at small N")
	}
	if !(cu[2] > cu[0]) {
		t.Error("CU must help at small N")
	}
}

func TestSweepTypes(t *testing.T) {
	g := slice(t, "aocl", base(), Space{Types: []kernel.DataType{kernel.Int32, kernel.Float64}})
	if len(g) != 2 {
		t.Fatalf("got %d points", len(g))
	}
	if !(g[1] > g[0]) {
		t.Error("doubles must beat ints on AOCL (wider coalesced access)")
	}
}

func TestSpaceSizeAndConfigs(t *testing.T) {
	s := Space{
		VecWidths: []int{1, 4},
		Loops:     []kernel.LoopMode{kernel.FlatLoop, kernel.NestedLoop},
		Unrolls:   []int{1, 2, 4},
	}
	if s.Size() != 12 {
		t.Errorf("Size = %d, want 12", s.Size())
	}
	cfgs := s.Configs(base())
	if len(cfgs) != 12 {
		t.Fatalf("Configs = %d, want 12", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		seen[ConfigLabel(c)] = true
	}
	if len(seen) != 12 {
		t.Errorf("labels not unique: %d distinct", len(seen))
	}
}

func TestSpaceSizeSaturatesOnOverflow(t *testing.T) {
	huge := make([]int, 1<<21)
	s := Space{Unrolls: huge, SIMDs: huge, CUs: huge}
	// 2^63 grid points overflow int on every platform.
	if got := s.Size(); got != math.MaxInt {
		t.Errorf("Size must saturate at MaxInt, got %d", got)
	}
}

func TestEmptySpaceIsBase(t *testing.T) {
	cfgs := Space{}.Configs(base())
	if len(cfgs) != 1 {
		t.Fatalf("empty space must yield the base config, got %d", len(cfgs))
	}
}

func TestExploreFindsVectorizationOnAOCL(t *testing.T) {
	space := Space{
		VecWidths: []int{1, 4, 16},
		Loops:     []kernel.LoopMode{kernel.NDRange, kernel.FlatLoop},
	}
	ex := Explore(dev(t, "aocl"), base(), space, kernel.Copy)
	best, ok := ex.Best()
	if !ok {
		t.Fatal("no feasible point")
	}
	if best.Config.VecWidth != 16 || best.Config.Loop != kernel.FlatLoop {
		t.Errorf("best = %s, want the vec16 flat loop", best.Label)
	}
	if len(ex.Ranked) != 6 {
		t.Errorf("ranked %d points, want 6", len(ex.Ranked))
	}
	// Ranking is descending.
	for i := 1; i < len(ex.Ranked); i++ {
		if ex.Ranked[i].GBps(kernel.Copy) > ex.Ranked[i-1].GBps(kernel.Copy) {
			t.Error("ranking not descending")
		}
	}
}

func TestExploreCountsInfeasible(t *testing.T) {
	// Unrolled wide double triads overflow the Stratix V.
	space := Space{
		VecWidths: []int{16},
		Loops:     []kernel.LoopMode{kernel.FlatLoop},
		Unrolls:   []int{1, 64},
		Types:     []kernel.DataType{kernel.Float64},
	}
	cfg := base()
	ex := Explore(dev(t, "aocl"), cfg, space, kernel.Triad)
	if ex.Infeasible == 0 {
		t.Error("expected infeasible configurations")
	}
	if len(ex.Ranked) == 0 {
		t.Error("expected at least one feasible configuration")
	}
}

func TestPointGBpsNilSafety(t *testing.T) {
	var p Point
	if p.GBps(kernel.Copy) != 0 {
		t.Error("nil result must yield 0")
	}
	p.Result = &core.Result{}
	if p.GBps(kernel.Copy) != 0 {
		t.Error("missing op must yield 0")
	}
}
