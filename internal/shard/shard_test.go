package shard

import "testing"

// checkCover asserts the ranges tile [0, n) exactly once, in order.
func checkCover(t *testing.T, n int, rs []Range) {
	t.Helper()
	lo := 0
	for i, r := range rs {
		if r.Lo != lo {
			t.Fatalf("range %d starts at %d, want %d (%v)", i, r.Lo, lo, rs)
		}
		if r.Hi-r.Lo < 1 {
			t.Fatalf("range %d is empty (%v)", i, rs)
		}
		lo = r.Hi
	}
	if lo != n {
		t.Fatalf("ranges end at %d, want %d (%v)", lo, n, rs)
	}
}

func TestSplitCoversAndBalances(t *testing.T) {
	for _, tc := range []struct{ n, parts, want int }{
		{10, 3, 3}, {10, 10, 10}, {10, 99, 10}, {10, 0, 1}, {1, 5, 1}, {7, 2, 2},
	} {
		rs := Split(tc.n, tc.parts)
		if len(rs) != tc.want {
			t.Errorf("Split(%d, %d) yields %d ranges, want %d", tc.n, tc.parts, len(rs), tc.want)
		}
		checkCover(t, tc.n, rs)
		// Balanced within one unit, larger shards first.
		for i := 1; i < len(rs); i++ {
			if rs[i].Hi-rs[i].Lo > rs[i-1].Hi-rs[i-1].Lo {
				t.Errorf("Split(%d, %d): range %d larger than its predecessor (%v)", tc.n, tc.parts, i, rs)
			}
			if (rs[0].Hi-rs[0].Lo)-(rs[i].Hi-rs[i].Lo) > 1 {
				t.Errorf("Split(%d, %d): imbalance > 1 unit (%v)", tc.n, tc.parts, rs)
			}
		}
	}
}

func TestUnitCountFloorsShardSize(t *testing.T) {
	for _, tc := range []struct{ n, unit, want int }{
		{16, 4, 4},  // exact division
		{17, 4, 4},  // remainder folds into existing shards
		{3, 4, 1},   // less work than one unit still yields a shard
		{24, 1, 24}, // unit 1: one shard per work unit
		{24, 0, 24}, // unit < 1 clamps to 1
		{4096, 8, 512},
	} {
		got := UnitCount(tc.n, tc.unit)
		if got != tc.want {
			t.Errorf("UnitCount(%d, %d) = %d, want %d", tc.n, tc.unit, got, tc.want)
			continue
		}
		// The floor contract: every shard of the resulting Split holds at
		// least unit work units (when n itself does).
		unit := tc.unit
		if unit < 1 {
			unit = 1
		}
		rs := Split(tc.n, got)
		checkCover(t, tc.n, rs)
		for i, r := range rs {
			if tc.n >= unit && r.Hi-r.Lo < unit {
				t.Errorf("UnitCount(%d, %d): shard %d size %d below floor", tc.n, tc.unit, i, r.Hi-r.Lo)
			}
		}
	}
}
