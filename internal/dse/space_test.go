package dse

import (
	"reflect"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/kernel"
)

func testSpace() Space {
	return Space{
		VecWidths: []int{1, 2, 4},
		Unrolls:   []int{1, 2},
		Types:     []kernel.DataType{kernel.Int32, kernel.Float64},
	}
}

// TestSpaceAtMatchesConfigs pins the lattice API to the flat
// enumeration: At(Unflatten(i)) must be the i-th config of Configs for
// every grid point, and Flatten must invert Unflatten.
func TestSpaceAtMatchesConfigs(t *testing.T) {
	s := testSpace()
	base := core.DefaultConfig()
	cfgs := s.Configs(base)
	if len(cfgs) != s.Size() {
		t.Fatalf("Configs returned %d points, Size says %d", len(cfgs), s.Size())
	}
	if want := []int{3, 2, 2}; !reflect.DeepEqual(s.Dims(), want) {
		t.Fatalf("Dims = %v, want %v", s.Dims(), want)
	}
	for i, want := range cfgs {
		idx := s.Unflatten(i)
		if got := s.At(base, idx); !reflect.DeepEqual(got, want) {
			t.Errorf("At(Unflatten(%d)=%v) = %+v, want %+v", i, idx, got, want)
		}
		if back := s.Flatten(idx); back != i {
			t.Errorf("Flatten(Unflatten(%d)) = %d", i, back)
		}
	}
}

// TestSpaceEmpty: a space with no axes is a single point — the base.
func TestSpaceEmpty(t *testing.T) {
	var s Space
	base := core.DefaultConfig()
	if s.Size() != 1 || len(s.Dims()) != 0 {
		t.Fatalf("empty space: size %d dims %v", s.Size(), s.Dims())
	}
	if got := s.Configs(base); len(got) != 1 || !reflect.DeepEqual(got[0], base) {
		t.Fatalf("empty space configs = %+v", got)
	}
	if got := s.At(base, nil); !reflect.DeepEqual(got, base) {
		t.Fatalf("empty space At = %+v", got)
	}
	if nbs := s.Neighbors(nil); len(nbs) != 0 {
		t.Fatalf("empty space neighbors = %v", nbs)
	}
}

// TestSpaceNeighbors checks Hamming-1 adjacency with clamped ends and
// the deterministic axis-order, -1-before-+1 ordering.
func TestSpaceNeighbors(t *testing.T) {
	s := testSpace() // dims 3,2,2
	got := s.Neighbors([]int{1, 0, 1})
	want := [][]int{
		{0, 0, 1}, // vec -1
		{2, 0, 1}, // vec +1
		{1, 1, 1}, // unroll +1 (unroll -1 clamped)
		{1, 0, 0}, // type -1 (type +1 clamped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors = %v, want %v", got, want)
	}

	// Corners lose the out-of-range moves.
	got = s.Neighbors([]int{0, 0, 0})
	want = [][]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("corner Neighbors = %v, want %v", got, want)
	}

	// Every neighbor is a valid grid point one Hamming step away.
	for _, idx := range [][]int{{0, 1, 0}, {2, 1, 1}} {
		for _, nb := range s.Neighbors(idx) {
			diff := 0
			for k := range nb {
				if nb[k] != idx[k] {
					diff++
				}
				if nb[k] < 0 || nb[k] >= s.Dims()[k] {
					t.Errorf("neighbor %v of %v out of range", nb, idx)
				}
			}
			if diff != 1 {
				t.Errorf("neighbor %v of %v differs in %d axes", nb, idx, diff)
			}
		}
	}
}

// TestSpacePartition pins the shard contract: ranges are contiguous,
// cover the flat order exactly once, balance within one point, and
// ConfigsRange over each range reproduces the matching Configs slice.
func TestSpacePartition(t *testing.T) {
	s := testSpace() // 12 points
	base := core.DefaultConfig()
	all := s.Configs(base)
	for _, parts := range []int{1, 2, 3, 5, 12, 40} {
		rs := s.Partition(parts)
		wantShards := parts
		if wantShards > s.Size() {
			wantShards = s.Size()
		}
		if len(rs) != wantShards {
			t.Fatalf("Partition(%d) made %d shards, want %d", parts, len(rs), wantShards)
		}
		lo := 0
		for i, r := range rs {
			if r.Lo != lo {
				t.Fatalf("Partition(%d) shard %d starts at %d, want %d", parts, i, r.Lo, lo)
			}
			if d := (r.Hi - r.Lo) - (rs[len(rs)-1].Hi - rs[len(rs)-1].Lo); d < 0 || d > 1 {
				t.Fatalf("Partition(%d) shard sizes unbalanced: %v", parts, rs)
			}
			if got := s.ConfigsRange(base, r.Lo, r.Hi); !reflect.DeepEqual(got, all[r.Lo:r.Hi]) {
				t.Fatalf("ConfigsRange(%d,%d) diverges from Configs slice", r.Lo, r.Hi)
			}
			lo = r.Hi
		}
		if lo != s.Size() {
			t.Fatalf("Partition(%d) covers %d of %d points", parts, lo, s.Size())
		}
	}
}

// TestSpacePartitionEmpty: an empty space still yields one range with
// its single base point, and degenerate part counts clamp to one shard.
func TestSpacePartitionEmpty(t *testing.T) {
	var s Space
	for _, parts := range []int{-1, 0, 1, 4} {
		rs := s.Partition(parts)
		if len(rs) != 1 || rs[0] != (Range{Lo: 0, Hi: 1}) {
			t.Fatalf("empty space Partition(%d) = %v", parts, rs)
		}
	}
	base := core.DefaultConfig()
	if got := s.ConfigsRange(base, 0, 1); len(got) != 1 || !reflect.DeepEqual(got[0], base) {
		t.Fatalf("empty space ConfigsRange = %+v", got)
	}
}

// TestConfigsRangePanics: out-of-bounds ranges are programmer errors.
func TestConfigsRangePanics(t *testing.T) {
	s := testSpace()
	base := core.DefaultConfig()
	for name, f := range map[string]func(){
		"negative": func() { s.ConfigsRange(base, -1, 2) },
		"inverted": func() { s.ConfigsRange(base, 3, 2) },
		"past-end": func() { s.ConfigsRange(base, 0, s.Size()+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConfigsRange %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestSpaceIndexPanics: malformed index vectors are programmer errors.
func TestSpaceIndexPanics(t *testing.T) {
	s := testSpace()
	for name, f := range map[string]func(){
		"At":        func() { s.At(core.DefaultConfig(), []int{0}) },
		"Flatten":   func() { s.Flatten([]int{0, 0}) },
		"Neighbors": func() { s.Neighbors([]int{0, 0, 0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with wrong-length index did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Flatten converts an index vector to its flat enumeration position:
// the position the configuration occupies in Configs' output. It is the
// inverse the tests check Unflatten against.
func (s Space) Flatten(idx []int) int {
	ax := s.axes()
	if len(idx) != len(ax) {
		panic("dse: index vector length does not match space dimensions")
	}
	flat := 0
	for k, a := range ax {
		flat = flat*a.n + idx[k]
	}
	return flat
}
