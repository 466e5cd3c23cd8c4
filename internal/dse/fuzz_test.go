package dse

import (
	"reflect"
	"testing"

	"mpstream/internal/core"
)

// FuzzParseSpace parses arbitrary axis lists. A space ParseSpace accepts
// with at most 4096 points must be a consistent lattice: Flatten undoes
// Unflatten at every index, every neighbour is an in-range point,
// Partition covers the flat order exactly once for 1 to 8 parts, and
// ConfigsRange over the partition reproduces Configs.
func FuzzParseSpace(f *testing.F) {
	f.Add("1,4,16", "ndrange,flat", "", "", "", "")
	f.Add("1,2,4,8,16", "flat,nested", "1,2,4", "1,2,4,8", "1,2", "float,double")
	f.Add("", "", "", "", "", "")
	f.Add("3", "", " ,5, ", "-1,0", "", "int")
	f.Add("1,x", "loop", "", "", "", "")
	base := core.DefaultConfig()
	f.Fuzz(func(t *testing.T, vecs, loops, unrolls, simds, cus, dtypes string) {
		s, err := ParseSpace(vecs, loops, unrolls, simds, cus, dtypes)
		if err != nil {
			return
		}
		n := s.Size()
		if n > 4096 {
			return
		}
		if n < 1 {
			t.Fatalf("Size() = %d, want at least the base point", n)
		}
		dims := s.Dims()
		inRange := func(idx []int) bool {
			if len(idx) != len(dims) {
				return false
			}
			for k, d := range idx {
				if d < 0 || d >= dims[k] {
					return false
				}
			}
			return true
		}
		for i := 0; i < n; i++ {
			idx := s.Unflatten(i)
			if !inRange(idx) {
				t.Fatalf("Unflatten(%d) = %v outside dims %v", i, idx, dims)
			}
			if back := s.Flatten(idx); back != i {
				t.Fatalf("Flatten(Unflatten(%d)) = %d", i, back)
			}
			for _, nb := range s.Neighbors(idx) {
				if !inRange(nb) {
					t.Fatalf("neighbour %v of %v outside dims %v", nb, idx, dims)
				}
				if j := s.Flatten(nb); j < 0 || j >= n || j == i {
					t.Fatalf("neighbour %v of %v flattens to %d in a %d-point space", nb, idx, j, n)
				}
			}
		}
		all := s.Configs(base)
		if len(all) != n {
			t.Fatalf("Configs yields %d points, Size %d", len(all), n)
		}
		for parts := 1; parts <= 8; parts++ {
			next := 0
			for _, r := range s.Partition(parts) {
				if r.Lo != next || r.Hi < r.Lo {
					t.Fatalf("Partition(%d): range %+v after %d", parts, r, next)
				}
				for j, c := range s.ConfigsRange(base, r.Lo, r.Hi) {
					if !reflect.DeepEqual(c, all[r.Lo+j]) {
						t.Fatalf("Partition(%d): ConfigsRange point %d differs from Configs", parts, r.Lo+j)
					}
				}
				next = r.Hi
			}
			if next != n {
				t.Fatalf("Partition(%d) covers [0, %d), want [0, %d)", parts, next, n)
			}
		}
	})
}
