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

func TestSweepVecWidths(t *testing.T) {
	pts := SweepVecWidths(dev(t, "aocl"), base(), []int{1, 2, 4, 8, 16})
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Label != "v1" || pts[4].Label != "v16" {
		t.Errorf("labels wrong: %s, %s", pts[0].Label, pts[4].Label)
	}
	if !(pts[0].GBps(kernel.Copy) < pts[3].GBps(kernel.Copy)) {
		t.Error("AOCL vectorization must help")
	}
}

func TestSweepLoopModes(t *testing.T) {
	pts := SweepLoopModes(dev(t, "sdaccel"), base())
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	byLabel := map[string]float64{}
	for _, p := range pts {
		if p.Err != nil {
			t.Fatal(p.Err)
		}
		byLabel[p.Label] = p.GBps(kernel.Copy)
	}
	if !(byLabel["nested"] > byLabel["ndrange"] && byLabel["ndrange"] > byLabel["flat"]) {
		t.Errorf("sdaccel loop ordering wrong: %v", byLabel)
	}
}

func TestSweepSIMDAndCU(t *testing.T) {
	ns := []int{1, 2, 4}
	simd := SweepSIMD(dev(t, "aocl"), base(), ns)
	cu := SweepCU(dev(t, "aocl"), base(), ns)
	for i := range ns {
		if simd[i].Err != nil {
			t.Fatalf("simd%d: %v", ns[i], simd[i].Err)
		}
		if cu[i].Err != nil {
			t.Fatalf("cu%d: %v", ns[i], cu[i].Err)
		}
	}
	if !(simd[2].GBps(kernel.Copy) > simd[0].GBps(kernel.Copy)) {
		t.Error("SIMD must help at small N")
	}
	if !(cu[2].GBps(kernel.Copy) > cu[0].GBps(kernel.Copy)) {
		t.Error("CU must help at small N")
	}
}

func TestSweepUnrollForcesLoopKernel(t *testing.T) {
	pts := SweepUnroll(dev(t, "cpu"), base(), []int{1, 4})
	for _, p := range pts {
		if p.Err != nil {
			t.Fatalf("%s: %v", p.Label, p.Err)
		}
		if p.Config.OptimalLoop || p.Config.Loop == kernel.NDRange {
			t.Error("unroll sweep must force a loop kernel on NDRange-optimal devices")
		}
	}
}

func TestSweepTypes(t *testing.T) {
	pts := SweepTypes(dev(t, "aocl"), base())
	if len(pts) != 2 || pts[0].Label != "int" || pts[1].Label != "double" {
		t.Fatalf("type sweep wrong: %+v", pts)
	}
	if !(pts[1].GBps(kernel.Copy) > pts[0].GBps(kernel.Copy)) {
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
