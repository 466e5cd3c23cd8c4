package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"mpstream/internal/kernel"
	"mpstream/internal/paperdata"
	"mpstream/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"targets", "fig1a", "fig1b", "fig2", "fig3", "fig4a", "fig4b",
		"pcie", "resources", "unroll", "preshape", "dtype", "efficiency", "hmc", "stride"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, w := range want {
		if reg[i].ID != w {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, w)
		}
	}
	for _, w := range want {
		if _, err := ByID(w); err != nil {
			t.Errorf("ByID(%q): %v", w, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestWorstFactor(t *testing.T) {
	s := Series{GBps: []float64{2, 10}, Paper: []float64{1, 10}}
	if got := s.WorstFactor(); got != 2 {
		t.Errorf("WorstFactor = %v, want 2", got)
	}
	s = Series{GBps: []float64{0.5}, Paper: []float64{1}}
	if got := s.WorstFactor(); got != 2 {
		t.Errorf("inverse WorstFactor = %v, want 2", got)
	}
	if (Series{}).WorstFactor() != 1 {
		t.Error("no paper data must give 1")
	}
	// Zero points are skipped.
	s = Series{GBps: []float64{0, 1}, Paper: []float64{5, 1}}
	if got := s.WorstFactor(); got != 1 {
		t.Errorf("zero-skipping WorstFactor = %v", got)
	}
}

// Fig1b is the cheapest full-figure experiment: use it to check series
// structure, rendering and paper agreement end to end.
func TestFig1bEndToEnd(t *testing.T) {
	e, err := Fig1b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Series) != 4 {
		t.Fatalf("got %d series", len(e.Series))
	}
	for _, s := range e.Series {
		if len(s.GBps) != 5 || len(s.Paper) != 5 {
			t.Errorf("%s: %d measured / %d paper points", s.Name, len(s.GBps), len(s.Paper))
		}
		if wf := s.WorstFactor(); wf > 1.35 {
			t.Errorf("%s deviates %.2fx from the paper (want <= 1.35x)", s.Name, wf)
		}
	}
	if dev := e.GeoMeanDeviation(); dev > 1.2 {
		t.Errorf("fig1b geomean deviation %.2fx, want <= 1.2x", dev)
	}

	var text strings.Builder
	if err := e.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig1b", "aocl", "gpu", "deviation", "legend"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q", want)
		}
	}
	var md strings.Builder
	if err := e.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| vector width (words) |") &&
		!strings.Contains(md.String(), "###") {
		t.Errorf("markdown output malformed:\n%s", md.String())
	}
}

func TestFig3Orderings(t *testing.T) {
	e, err := Fig3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Series X axis is [ndrange flat nested]; check each target's ranking
	// matches paperdata.Fig3Order.
	idx := map[kernel.LoopMode]int{kernel.NDRange: 0, kernel.FlatLoop: 1, kernel.NestedLoop: 2}
	for _, s := range e.Series {
		order := paperdata.Fig3Order[s.Name]
		best := s.GBps[idx[order[0]]]
		mid := s.GBps[idx[order[1]]]
		worst := s.GBps[idx[order[2]]]
		if !(best >= mid && mid >= worst) {
			t.Errorf("%s: loop ordering %v broken: %v", s.Name, order, s.GBps)
		}
	}
}

func TestFig4aMemoryBound(t *testing.T) {
	e, err := Fig4a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Series {
		if len(s.GBps) != 4 {
			t.Fatalf("%s: %d kernels", s.Name, len(s.GBps))
		}
		smry, _ := stats.Summarize(s.GBps)
		if smry.Max/smry.Min > 2.0 {
			t.Errorf("%s: kernels spread %0.2fx, want memory-bound (< 2x)", s.Name, smry.Max/smry.Min)
		}
	}
}

func TestFig4bShape(t *testing.T) {
	e, err := Fig4b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range e.Series {
		byName[s.Name] = s.GBps
	}
	vec, simd, cu := byName["vector"], byName["simd"], byName["cu"]
	if !(vec[4] > simd[4] && vec[4] > cu[4]) {
		t.Errorf("vectorization must win at N=16: vec=%v simd=%v cu=%v", vec[4], simd[4], cu[4])
	}
	if !(simd[4] < slices.Max(simd) && cu[4] < slices.Max(cu)) {
		t.Error("SIMD/CU must degrade past their interior peaks")
	}
}

func TestTargetsTable(t *testing.T) {
	e, err := Targets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aocl", "sdaccel", "cpu", "gpu", "Stratix", "Titan"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("targets table missing %q", want)
		}
	}
}

func TestPCIeBounded(t *testing.T) {
	e, err := PCIe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Series {
		last := s.GBps[len(s.GBps)-1]
		switch s.Name {
		case "gpu":
			if last > 11.5 {
				t.Errorf("gpu host-IO %.1f exceeds its PCIe link", last)
			}
		case "aocl":
			if last > 3.5 {
				t.Errorf("aocl host-IO %.1f exceeds its PCIe link", last)
			}
		}
	}
}

func TestResourcesTable(t *testing.T) {
	e, err := Resources(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"vector", "simd", "cu", "util %"} {
		if !strings.Contains(out, want) {
			t.Errorf("resources table missing %q", want)
		}
	}
}

func TestPreshapeCrossover(t *testing.T) {
	e, err := Preshape(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range e.Series {
		byName[s.Name] = s.GBps
	}
	for _, id := range []string{"cpu", "gpu"} {
		always := byName[id+"-strided"]
		pre := byName[id+"-preshaped"]
		last := len(pre) - 1
		if !(pre[last] > always[last]) {
			t.Errorf("%s: pre-shaping must win at high reuse: %v vs %v", id, pre[last], always[last])
		}
		if pre[0] > always[0]*1.01 {
			t.Errorf("%s: pre-shaping cannot win at k=1 (gather costs a strided pass)", id)
		}
	}
}

func TestDtype(t *testing.T) {
	e, err := Dtype(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Series {
		if len(s.GBps) != 2 {
			t.Fatalf("%s: %d points", s.Name, len(s.GBps))
		}
		if s.Name == "aocl" && s.GBps[1] <= s.GBps[0] {
			t.Error("aocl doubles must beat ints (wider coalesced access)")
		}
	}
}

func TestUnrollHelps(t *testing.T) {
	e, err := Unroll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Series {
		if s.Name == "aocl" && !(s.GBps[3] > s.GBps[0]) {
			t.Errorf("aocl unroll must help: %v", s.GBps)
		}
	}
}

func TestEfficiency(t *testing.T) {
	e, err := Efficiency(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MB/J", "aocl", "gpu"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("efficiency table missing %q", want)
		}
	}
}

func TestHMCChangesThePicture(t *testing.T) {
	e, err := HMC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range e.Series {
		byName[s.Name] = s.GBps
	}
	ddr3 := byName["aocl-ddr3"]
	hmc := byName["aocl-hmc"]
	last := len(ddr3) - 1
	// The paper's closing remark: HMC changes the picture considerably —
	// the wide-vector ceiling must rise well past the DDR3 board's.
	if hmc[last] < 1.6*ddr3[last] {
		t.Errorf("HMC vec16 (%.1f) must clearly beat DDR3 vec16 (%.1f)", hmc[last], ddr3[last])
	}
	// Narrow pipelines are fmax-bound either way: roughly equal at vec1.
	if hmc[0] > 1.3*ddr3[0] || ddr3[0] > 1.3*hmc[0] {
		t.Errorf("vec1 should be fmax-bound on both: %.2f vs %.2f", hmc[0], ddr3[0])
	}
}

func TestStrideSweep(t *testing.T) {
	e, err := StrideSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Series {
		// Stride 1 is contiguous: it must be the fastest point, and
		// throughput must fall towards a floor as the stride widens.
		if slices.Index(s.GBps, slices.Max(s.GBps)) != 0 {
			t.Errorf("%s: stride 1 must be fastest: %v", s.Name, s.GBps)
		}
		last := len(s.GBps) - 1
		if s.GBps[last] > 0.6*s.GBps[0] {
			t.Errorf("%s: wide strides must fall well below contiguous: %v", s.Name, s.GBps)
		}
	}
}
