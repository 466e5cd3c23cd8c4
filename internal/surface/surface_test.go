package surface

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/sim/mem"
)

// generate measures the whole curve grid of cfg, as a single node does.
func generate(dev device.Device, cfg Config) (*Surface, error) {
	return GenerateShardWith(context.Background(), dev, cfg, 0, cfg.CurveCount(), nil)
}

// smallConfig keeps unit-test surfaces fast.
func smallConfig() Config {
	return Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern()},
		RWRatios:   []float64{1, 0.5},
		Rates:      []float64{0.1, 0.5, 0.9, 1.2},
		ArrayBytes: 4 << 20,
		WindowTxns: 8192,
		ProbeHops:  128,
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config must validate via defaults: %v", err)
	}
	bad := []Config{
		{ArrayBytes: 16},
		{RWRatios: []float64{1.5}},
		{RWRatios: []float64{-0.1}},
		{Rates: []float64{0}},
		{Rates: []float64{-1}},
		// A finite rate whose offered GB/s overflows.
		{Rates: []float64{1e308}},
		{WindowTxns: 8},
		{ProbeHops: 2},
		{KneeFactor: 0.5},
		// NaN fails every ordered comparison, and an infinite rate means
		// a zero inter-arrival time; none of them may reach the simulator.
		{RWRatios: []float64{math.NaN()}},
		{Rates: []float64{math.NaN()}},
		{Rates: []float64{math.Inf(1)}},
		{KneeFactor: math.NaN()},
		{KneeFactor: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
}

func TestPoints(t *testing.T) {
	if got := smallConfig().Points(); got != 8 {
		t.Errorf("Points = %d, want 8", got)
	}
	def := Config{}.Points()
	if def != len(DefaultPatterns())*len(DefaultRWRatios())*len(DefaultRates()) {
		t.Errorf("default Points = %d", def)
	}
}

func TestGenerateShapeAndMechanism(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	s, err := generate(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Device.ID != "gpu" {
		t.Errorf("device id %q", s.Device.ID)
	}
	if len(s.Curves) != 2 {
		t.Fatalf("curves = %d, want 2", len(s.Curves))
	}
	for _, c := range s.Curves {
		if len(c.Points) != len(cfg.Rates) {
			t.Fatalf("curve has %d points, want %d", len(c.Points), len(cfg.Rates))
		}
		if c.IdleLatencyNs <= 0 {
			t.Errorf("idle latency %.1f must be positive", c.IdleLatencyNs)
		}
		for i, p := range c.Points {
			if p.LatencyNs < c.IdleLatencyNs*0.9 {
				t.Errorf("loaded latency %.1f below idle %.1f", p.LatencyNs, c.IdleLatencyNs)
			}
			if p.AchievedGBps <= 0 || p.OfferedGBps <= 0 {
				t.Errorf("point %d has no bandwidth: %+v", i, p)
			}
			if p.AchievedGBps > s.Device.PeakMemGBps*1.01 {
				t.Errorf("achieved %.1f exceeds peak %.1f", p.AchievedGBps, s.Device.PeakMemGBps)
			}
			// Monotone up to measurement noise — except once both points
			// are deep past saturation (a chase completes very few hops
			// there, so the handful of huge samples jitter).
			deep := 5 * c.IdleLatencyNs
			if i > 0 && p.LatencyNs < 0.9*c.Points[i-1].LatencyNs &&
				!(p.LatencyNs > deep && c.Points[i-1].LatencyNs > deep) {
				t.Errorf("latency not monotone with rate: %.1f after %.1f",
					p.LatencyNs, c.Points[i-1].LatencyNs)
			}
		}
		// The ladder crosses saturation, so the last rung must be visibly
		// congested relative to the first.
		first, last := c.Points[0], c.Points[len(c.Points)-1]
		if last.LatencyNs < 2*first.LatencyNs {
			t.Errorf("saturated rung %.1f ns not clearly above idle rung %.1f ns",
				last.LatencyNs, first.LatencyNs)
		}
		// Knee sits on the curve, within the latency budget.
		if c.Knee.GBps <= 0 {
			t.Errorf("knee bandwidth missing: %+v", c.Knee)
		}
		if !c.Knee.Saturated && c.Knee.LatencyNs > DefaultKneeFactor*c.IdleLatencyNs {
			t.Errorf("knee latency %.1f beyond budget", c.Knee.LatencyNs)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	run := func() *Surface {
		dev, err := targets.ByID("cpu")
		if err != nil {
			t.Fatal(err)
		}
		s, err := generate(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical configurations produced different surfaces")
	}
}

func TestGenerateAllTargets(t *testing.T) {
	cfg := smallConfig()
	cfg.RWRatios = []float64{2.0 / 3}
	cfg.Rates = []float64{0.25, 1.0}
	for _, dev := range targets.All() {
		s, err := generate(dev, cfg)
		if err != nil {
			t.Errorf("%s: %v", dev.Info().ID, err)
			continue
		}
		if len(s.Curves) != 1 || len(s.Curves[0].Points) != 2 {
			t.Errorf("%s: unexpected shape", dev.Info().ID)
		}
	}
}

// fakeDevice implements device.Device without a memory system.
type fakeDevice struct{ device.Device }

func (fakeDevice) Info() device.Info { return device.Info{ID: "fake"} }

func TestGenerateNeedsMemorySystem(t *testing.T) {
	_, err := generate(fakeDevice{}, smallConfig())
	if err == nil || !strings.Contains(err.Error(), "memory system") {
		t.Errorf("expected a memory-system error, got %v", err)
	}
}

func TestStridedKneeBelowContiguous(t *testing.T) {
	cfg := smallConfig()
	// Stride of 128 bursts = one full 8 KB row per hop on the CPU's
	// DDR3: every access activates a fresh row, so the tFAW activation
	// window caps the bandwidth well below the streaming capacity.
	cfg.Patterns = []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(128)}
	cfg.RWRatios = []float64{1}
	dev, err := targets.ByID("cpu")
	if err != nil {
		t.Fatal(err)
	}
	s, err := generate(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	contig, strided := s.Curves[0], s.Curves[1]
	// The row-per-hop stride thrashes rows and trips the activation-rate
	// limit: past saturation it cannot deliver what streaming does.
	last := len(contig.Points) - 1
	if strided.Points[last].AchievedGBps >= contig.Points[last].AchievedGBps {
		t.Errorf("saturated strided bandwidth %.2f not below contiguous %.2f",
			strided.Points[last].AchievedGBps, contig.Points[last].AchievedGBps)
	}
	// The probe chase is background-independent: all curves of one
	// surface share the single idle measurement.
	if strided.IdleLatencyNs != contig.IdleLatencyNs {
		t.Errorf("idle latency differs between curves: %.1f vs %.1f",
			strided.IdleLatencyNs, contig.IdleLatencyNs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dev, err := targets.ByID("aocl")
	if err != nil {
		t.Fatal(err)
	}
	s, err := generate(dev, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Surface
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Error("surface does not survive a JSON round trip")
	}
}

func TestTables(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	s, err := generate(dev, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Table().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"pattern", "achieved GB/s", "contiguous", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := s.KneeTable().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "knee GB/s") {
		t.Errorf("knee CSV missing header:\n%s", sb.String())
	}
	sb.Reset()
	if err := s.Curves[0].Chart().Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "loaded latency") {
		t.Errorf("chart missing title:\n%s", sb.String())
	}
}

func TestMinKneeGBps(t *testing.T) {
	s := &Surface{Curves: []Curve{
		{Knee: Knee{GBps: 12}},
		{Knee: Knee{GBps: 7}},
		{Knee: Knee{GBps: 9}},
	}}
	if got := s.MinKneeGBps(); got != 7 {
		t.Errorf("MinKneeGBps = %g, want 7", got)
	}
	if got := (&Surface{}).MinKneeGBps(); got != 0 {
		t.Errorf("empty surface MinKneeGBps = %g", got)
	}
}

func TestPatternLabel(t *testing.T) {
	cases := map[string]mem.Pattern{
		"contiguous":      mem.ContiguousPattern(),
		"strided:16":      mem.StridedPattern(16),
		"colmajor2d":      mem.ColMajorPattern(),
		"colmajor2d:4x32": {Kind: mem.ColMajor2D, Rows: 4, Cols: 32},
	}
	for want, p := range cases {
		if got := patternLabel(p); got != want {
			t.Errorf("patternLabel(%+v) = %q, want %q", p, got, want)
		}
	}
}

// TestBackgroundWrapsInsideWindow: a window far longer than the array
// walk must keep the background pressure up (the walk wraps) — the
// saturated rung cannot relax toward idle latency mid-window.
func TestBackgroundWrapsInsideWindow(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern()},
		RWRatios:   []float64{1},
		Rates:      []float64{0.25, 1.2},
		ArrayBytes: 256 << 10, // 8192 bursts: far shorter than the window
		WindowTxns: 65536,
		ProbeHops:  128,
	}
	s, err := generate(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Curves[0]
	low, over := c.Points[0], c.Points[1]
	if over.LatencyNs < 3*low.LatencyNs {
		t.Errorf("over-saturated rung %.1f ns not clearly above low-load %.1f ns — background ran dry",
			over.LatencyNs, low.LatencyNs)
	}
}

// TestGenerateRejectsMisSizedShape: an explicit 2D shape that does not
// cover the array at the device's burst granularity fails fast, naming
// the granule, before any simulation.
func TestGenerateRejectsMisSizedShape(t *testing.T) {
	dev, err := targets.ByID("gpu") // 32-byte bursts
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Patterns = []mem.Pattern{{Kind: mem.ColMajor2D, Rows: 1024, Cols: 1024}}
	_, err = generate(dev, cfg)
	if err == nil || !strings.Contains(err.Error(), "bursts") {
		t.Errorf("mis-sized shape must fail fast with the granule named, got %v", err)
	}
	// But the granule-independent Validate accepts it (the shape may fit
	// another device's granularity).
	if err := cfg.Validate(); err != nil {
		t.Errorf("granule-independent validation should pass: %v", err)
	}
	bad := smallConfig()
	bad.Patterns = []mem.Pattern{{Kind: mem.Strided}}
	if err := bad.Validate(); err == nil {
		t.Error("zero stride must fail validation")
	}
}
