package surface

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"mpstream/internal/device/targets"
	"mpstream/internal/sim/mem"
)

// shardConfig has enough curves (3 patterns x 2 ratios = 6) to shard
// unevenly while staying fast.
func shardConfig() Config {
	return Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16), mem.StridedPattern(64)},
		RWRatios:   []float64{1, 0.5},
		Rates:      []float64{0.25, 0.9},
		ArrayBytes: 4 << 20,
		WindowTxns: 1024,
		ProbeHops:  64,
	}
}

// TestPartitionCurves pins the shard contract: contiguous, covering,
// balanced within one curve.
func TestPartitionCurves(t *testing.T) {
	cfg := shardConfig() // 6 curves
	if got := cfg.CurveCount(); got != 6 {
		t.Fatalf("CurveCount = %d, want 6", got)
	}
	for _, parts := range []int{1, 2, 3, 4, 6, 9} {
		shards := cfg.PartitionCurves(parts)
		want := parts
		if want > 6 {
			want = 6
		}
		if len(shards) != want {
			t.Fatalf("PartitionCurves(%d) made %d shards, want %d", parts, len(shards), want)
		}
		lo := 0
		for i, sh := range shards {
			if sh.Lo != lo {
				t.Fatalf("PartitionCurves(%d) shard %d starts at %d, want %d", parts, i, sh.Lo, lo)
			}
			if d := (sh.Hi - sh.Lo) - (shards[len(shards)-1].Hi - shards[len(shards)-1].Lo); d < 0 || d > 1 {
				t.Fatalf("PartitionCurves(%d) unbalanced: %v", parts, shards)
			}
			lo = sh.Hi
		}
		if lo != 6 {
			t.Fatalf("PartitionCurves(%d) covers %d of 6 curves", parts, lo)
		}
	}
}

// TestShardedGenerateMatchesFull: generating every shard independently
// (fresh device instances, as distributed workers would) and merging
// reproduces a single-node Generate byte for byte.
func TestShardedGenerateMatchesFull(t *testing.T) {
	cfg := shardConfig()
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	full, err := generate(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{2, 3, 6} {
		var shards []*Surface
		for _, sh := range cfg.PartitionCurves(parts) {
			d, err := targets.ByID("gpu")
			if err != nil {
				t.Fatal(err)
			}
			s, err := GenerateShardWith(context.Background(), d, cfg, sh.Lo, sh.Hi, nil)
			if err != nil {
				t.Fatalf("shard [%d,%d): %v", sh.Lo, sh.Hi, err)
			}
			if len(s.Curves) != sh.Hi-sh.Lo {
				t.Fatalf("shard [%d,%d) produced %d curves", sh.Lo, sh.Hi, len(s.Curves))
			}
			shards = append(shards, s)
		}
		merged, err := MergeShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged, full) {
			wantB, _ := json.Marshal(full)
			gotB, _ := json.Marshal(merged)
			t.Fatalf("%d-way sharded surface diverges from full generate:\n got %s\nwant %s", parts, gotB, wantB)
		}
	}
}

// TestGenerateShardBounds: out-of-grid shard ranges are request errors,
// not panics.
func TestGenerateShardBounds(t *testing.T) {
	cfg := shardConfig()
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 7}} {
		if _, err := GenerateShardWith(context.Background(), dev, cfg, r[0], r[1], nil); err == nil {
			t.Errorf("shard [%d,%d) accepted", r[0], r[1])
		}
	}
}

// TestMergeShards edge cases: empty input and nil shards are errors; a
// stopped shard taints the merged surface.
func TestMergeShards(t *testing.T) {
	if _, err := MergeShards(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeShards([]*Surface{{}, nil}); err == nil {
		t.Error("nil shard accepted")
	}
	m, err := MergeShards([]*Surface{{Curves: []Curve{{ReadFrac: 1}}}, {Stopped: "canceled"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stopped != "canceled" || len(m.Curves) != 1 {
		t.Errorf("merged = %+v", m)
	}
}
