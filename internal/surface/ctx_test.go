package surface

import (
	"context"
	"testing"

	"mpstream/internal/device/targets"
	"mpstream/internal/runstate"
	"mpstream/internal/sim/mem"
)

func ctxTestConfig() Config {
	return Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern()},
		RWRatios:   []float64{1, 0.5},
		Rates:      []float64{0.25, 0.5, 1.0},
		ArrayBytes: 4 << 20,
		WindowTxns: 256,
		ProbeHops:  32,
	}
}

// TestGenerateWithObserver: the observer sees every ladder rung, in
// measurement order, and a complete surface carries no stop tag.
func TestGenerateWithObserver(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctxTestConfig()
	var rungs int
	s, err := GenerateShardWith(context.Background(), dev, cfg, 0, cfg.CurveCount(), func(_ mem.Pattern, _ float64, p Point) {
		rungs++
		if p.AchievedGBps <= 0 {
			t.Errorf("observed rung with no bandwidth: %+v", p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stopped != "" {
		t.Fatalf("complete surface tagged %q", s.Stopped)
	}
	if want := cfg.Points(); rungs != want {
		t.Errorf("observer saw %d rungs, want %d", rungs, want)
	}
}

// TestGenerateWithCancelMidLadder: canceling from the observer stops
// between rungs; the partial surface keeps the measured rungs, detects
// knees over them, and is tagged canceled.
func TestGenerateWithCancelMidLadder(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctxTestConfig()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rungs := 0
	s, err := GenerateShardWith(ctx, dev, cfg, 0, cfg.CurveCount(), func(_ mem.Pattern, _ float64, _ Point) {
		rungs++
		if rungs == 2 {
			cancel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stopped != runstate.Canceled {
		t.Fatalf("stopped = %q, want %q", s.Stopped, runstate.Canceled)
	}
	measured := 0
	for _, c := range s.Curves {
		if len(c.Points) == 0 {
			t.Error("partial surface kept an empty curve")
		}
		measured += len(c.Points)
		if c.Knee.GBps <= 0 && !c.Knee.Saturated {
			t.Errorf("partial curve lost its knee: %+v", c.Knee)
		}
	}
	if measured != 2 {
		t.Errorf("partial surface kept %d rungs, want the 2 measured before the cancel", measured)
	}
}

// TestGenerateWithPreCanceled: an already-canceled context measures
// nothing but still returns a tagged (empty) surface rather than an
// error.
func TestGenerateWithPreCanceled(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := GenerateShardWith(ctx, dev, ctxTestConfig(), 0, ctxTestConfig().CurveCount(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stopped != runstate.Canceled || len(s.Curves) != 0 {
		t.Errorf("pre-canceled surface = stopped %q, %d curves", s.Stopped, len(s.Curves))
	}
}
