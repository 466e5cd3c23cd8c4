package sample

import (
	"math"
	"strings"
	"testing"

	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
)

// affineRunner simulates T(n) = ramp + n/rate exactly.
func affineRunner(total uint64, ramp, rate float64) Runner {
	return func(maxTxns uint64) Measurement {
		n := total
		if maxTxns > 0 && maxTxns < n {
			n = maxTxns
		}
		return Measurement{Txns: n, Seconds: ramp + float64(n)/rate}
	}
}

func TestExactWhenSmall(t *testing.T) {
	run := affineRunner(100, 1e-6, 1e9)
	est, err := Run(run, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sampled {
		t.Error("small run must be exact")
	}
	want := 1e-6 + 100/1e9
	if math.Abs(est.Seconds-want) > 1e-15 {
		t.Errorf("exact seconds = %v, want %v", est.Seconds, want)
	}
}

func TestSampledAffineIsExact(t *testing.T) {
	const total = 10_000_000
	run := affineRunner(total, 5e-6, 2e8)
	est, err := Run(run, total, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Sampled {
		t.Fatal("large run must be sampled")
	}
	want := 5e-6 + float64(total)/2e8
	if math.Abs(est.Seconds-want)/want > 1e-9 {
		t.Errorf("sampled seconds = %v, want %v (affine must extrapolate exactly)", est.Seconds, want)
	}
	if math.Abs(est.Rate-2e8)/2e8 > 1e-9 {
		t.Errorf("fitted rate = %v, want 2e8", est.Rate)
	}
}

func TestZeroWindowRunsExactly(t *testing.T) {
	run := affineRunner(1000, 0, 1e9)
	est, err := Run(run, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sampled {
		t.Error("zero window must run exactly")
	}
}

func TestDegenerateWindows(t *testing.T) {
	// A runner that ignores maxTxns and always reports the same thing.
	bad := func(maxTxns uint64) Measurement { return Measurement{Txns: 10, Seconds: 1} }
	if _, err := Run(bad, 1_000_000, 100); err == nil {
		t.Error("degenerate windows must error")
	}
	// Non-increasing time.
	weird := func(maxTxns uint64) Measurement {
		if maxTxns == 100 {
			return Measurement{Txns: 100, Seconds: 2}
		}
		return Measurement{Txns: 200, Seconds: 2}
	}
	if _, err := Run(weird, 1_000_000, 100); err == nil {
		t.Error("non-increasing time must error")
	}
}

func TestNeverBelowSimulated(t *testing.T) {
	// Even for a sub-linear (concave) runner, the sampled estimate must
	// not fall below the time already simulated in the longest window.
	run := func(maxTxns uint64) Measurement {
		n := maxTxns
		if n == 0 || n > 40000 {
			n = 40000
		}
		return Measurement{Txns: n, Seconds: math.Sqrt(float64(n))}
	}
	est, err := Run(run, 40000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Sampled {
		t.Fatal("expected sampled run")
	}
	if est.Seconds < math.Sqrt(2000) {
		t.Errorf("estimate %.3f below simulated window %.3f", est.Seconds, math.Sqrt(2000))
	}
}

// Fit rejects windows that did not grow: no transactions in the short
// window, no more in the long one, or no more simulated time.
func TestFitRejectsDegenerateWindows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m1, m2 Measurement
		want   string
	}{
		{"empty short window", Measurement{0, 0}, Measurement{200, 2}, "degenerate windows"},
		{"equal txns", Measurement{100, 1}, Measurement{100, 2}, "degenerate windows"},
		{"fewer txns", Measurement{200, 1}, Measurement{100, 2}, "degenerate windows"},
		{"equal time", Measurement{100, 2}, Measurement{200, 2}, "non-increasing time"},
		{"less time", Measurement{100, 3}, Measurement{200, 2}, "non-increasing time"},
	} {
		est, err := Fit(tc.m1, tc.m2, 1_000_000)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Fit error %v, want %q", tc.name, err, tc.want)
		}
		if est != (Estimate{}) {
			t.Errorf("%s: failed Fit returned %+v", tc.name, est)
		}
	}
}

// Fit extrapolates the line through the two windows and never predicts
// less than the long window simulated.
func TestFitExtrapolatesAndClamps(t *testing.T) {
	m1, m2 := Measurement{Txns: 100, Seconds: 1}, Measurement{Txns: 200, Seconds: 1.5}
	est, err := Fit(m1, m2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Estimate{Seconds: 5.5, Sampled: true, Rate: 200}); est != want {
		t.Errorf("Fit = %+v, want %+v", est, want)
	}
	// Below the long window the line falls under m2.Seconds: clamped.
	est, err = Fit(m1, m2, 150)
	if err != nil {
		t.Fatal(err)
	}
	if est.Seconds != m2.Seconds || !est.Sampled {
		t.Errorf("Fit below the long window = %+v, want Seconds clamped to %v", est, m2.Seconds)
	}
}

// A sampled Run is exactly Fit over its two windows, run in order.
func TestRunIsFitOfWindows(t *testing.T) {
	var order []uint64
	run := func(maxTxns uint64) Measurement {
		order = append(order, maxTxns)
		return Measurement{Txns: maxTxns, Seconds: 1e-6*math.Sqrt(float64(maxTxns)) + float64(maxTxns)/3e8}
	}
	const total, window = 12_345_678, 4096
	got, err := Run(run, total, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != window || order[1] != 2*window {
		t.Fatalf("Run ran windows %v, want [%d %d]", order, window, 2*window)
	}
	want, err := Fit(run(window), run(2*window), total)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Run = %+v, Fit of its windows = %+v", got, want)
	}
}

// Sampled estimates of the DRAM model must track exact simulation closely
// on streaming and strided workloads.
func TestSampledVsExactDRAM(t *testing.T) {
	cfg := dram.Config{
		Name:            "sdd",
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8192,
		BurstBytes:      64,
		BusGBps:         12.8,
		RowMissNs:       45,
		TurnaroundNs:    7.5,
		ActWindowNs:     40,
		RefreshLoss:     0.03,
		InterleaveBytes: 1024,
		HashChannels:    true,
	}
	m := dram.New(cfg)

	cases := []struct {
		name    string
		pattern mem.Pattern
		elems   int
		size    uint32
	}{
		{"contig64", mem.ContiguousPattern(), 1 << 19, 64},
		{"colmajor64", mem.ColMajorPattern(), 1 << 18, 64},
		{"strided17", mem.StridedPattern(17), 1 << 18, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkSrc := func() mem.Source {
				it, err := mem.NewIter(tc.pattern, 0, tc.elems, tc.size, mem.Read, 0)
				if err != nil {
					t.Fatal(err)
				}
				return it
			}
			runner := func(maxTxns uint64) Measurement {
				res := m.ServiceBounded(mkSrc(), maxTxns)
				return Measurement{Txns: res.Txns, Seconds: res.Seconds}
			}
			exact := m.Service(mkSrc()).Seconds
			est, err := Run(runner, uint64(tc.elems), 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			if !est.Sampled {
				t.Fatal("expected a sampled run")
			}
			relErr := math.Abs(est.Seconds-exact) / exact
			if relErr > 0.05 {
				t.Errorf("sampled %.4g s vs exact %.4g s: rel err %.3f > 5%%",
					est.Seconds, exact, relErr)
			}
		})
	}
}
