package link

import (
	"math"
	"testing"
	"testing/quick"
)

// gbps is the achieved bandwidth of an n-byte transfer over l.
func gbps(l *Link, n uint64) float64 { return float64(n) / l.TransferSeconds(n) / 1e9 }

func gen3x8() Config {
	return Config{Name: "gen3x8", GBps: 6.0, LatencyUs: 1.5, SetupUs: 8, MaxPayloadBytes: 4 << 20}
}

func TestValidate(t *testing.T) {
	if err := gen3x8().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "nobw", GBps: 0},
		{Name: "neglat", GBps: 1, LatencyUs: -1},
		{Name: "negsetup", GBps: 1, SetupUs: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %q accepted", c.Name)
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

func TestZeroBytesFree(t *testing.T) {
	l := New(gen3x8())
	if l.TransferSeconds(0) != 0 {
		t.Error("zero-byte transfer must take zero time")
	}
}

func TestLargeTransferApproachesPeak(t *testing.T) {
	l := New(gen3x8())
	eff := gbps(l, 1<<30)
	// Chunk setup costs keep it a bit under peak.
	if eff < 0.98*6.0 || eff > 6.0 {
		t.Errorf("1 GiB effective = %.3f GB/s, want ~6", eff)
	}
}

func TestSmallTransferLatencyBound(t *testing.T) {
	l := New(gen3x8())
	eff := gbps(l, 4096)
	// 4 KB over ~9.5us setup+latency: well under 1 GB/s.
	if eff > 0.5 {
		t.Errorf("4 KB effective = %.3f GB/s, want latency-dominated (<0.5)", eff)
	}
}

func TestChunking(t *testing.T) {
	cfg := gen3x8()
	cfg.MaxPayloadBytes = 1 << 20
	l := New(cfg)
	// 4 MB = 4 chunks: pays setup 4x.
	want := 1.5e-6 + 4*8e-6 + float64(4<<20)/6e9
	got := l.TransferSeconds(4 << 20)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("chunked transfer = %v, want %v", got, want)
	}
	// Unlimited payload pays setup once.
	cfg.MaxPayloadBytes = 0
	l2 := New(cfg)
	want2 := 1.5e-6 + 8e-6 + float64(4<<20)/6e9
	if got2 := l2.TransferSeconds(4 << 20); math.Abs(got2-want2) > 1e-12 {
		t.Errorf("unchunked transfer = %v, want %v", got2, want2)
	}
}

func TestTransferDuration(t *testing.T) {
	l := New(gen3x8())
	d := l.TransferSeconds(6_000_000_000) // 1 second of payload at 6 GB/s
	if d < 1.0 || d > 1.02 {
		t.Errorf("duration = %vs, want ~1s plus chunk setup", d)
	}
}

// Property: transfer time is monotone in size and effective bandwidth
// never exceeds the configured peak.
func TestQuickMonotoneAndBounded(t *testing.T) {
	l := New(gen3x8())
	f := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		if x > y {
			x, y = y, x
		}
		if l.TransferSeconds(x) > l.TransferSeconds(y) {
			return false
		}
		return y == 0 || gbps(l, y) <= gen3x8().GBps+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
