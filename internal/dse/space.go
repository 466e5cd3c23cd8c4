package dse

import (
	"math"

	"mpstream/internal/core"
	"mpstream/internal/kernel"
	"mpstream/internal/shard"
)

// Space is a parameter grid for exploration. Nil axes keep the base
// configuration's value. Beyond flat enumeration (Configs), a Space is
// an indexable discrete lattice: every grid point is addressed by an
// index vector with one digit per non-empty axis, which is what the
// neighborhood-based search strategies in dse/search walk.
type Space struct {
	VecWidths []int             `json:"vec_widths,omitempty"`
	Loops     []kernel.LoopMode `json:"loops,omitempty"`
	Unrolls   []int             `json:"unrolls,omitempty"`
	SIMDs     []int             `json:"simds,omitempty"`
	CUs       []int             `json:"cus,omitempty"`
	Types     []kernel.DataType `json:"types,omitempty"`
}

// axis is one non-empty dimension of the grid: its length and the
// mutation that applies value i of the axis to a configuration.
type axis struct {
	n     int
	apply func(*core.Config, int)
}

// axes returns the non-empty dimensions in enumeration order. The
// order fixes both the flat Configs order (first axis most
// significant) and the digit order of index vectors.
func (s Space) axes() []axis {
	var ax []axis
	add := func(n int, apply func(*core.Config, int)) {
		if n > 0 {
			ax = append(ax, axis{n: n, apply: apply})
		}
	}
	add(len(s.VecWidths), func(c *core.Config, i int) { c.VecWidth = s.VecWidths[i] })
	add(len(s.Loops), func(c *core.Config, i int) { c.OptimalLoop = false; c.Loop = s.Loops[i] })
	add(len(s.Unrolls), func(c *core.Config, i int) { c.Attrs.Unroll = s.Unrolls[i] })
	add(len(s.SIMDs), func(c *core.Config, i int) {
		c.Attrs.NumSIMDWorkItems = s.SIMDs[i]
		if s.SIMDs[i] > 1 && c.Attrs.ReqdWorkGroupSize == 0 {
			c.Attrs.ReqdWorkGroupSize = 256
		}
	})
	add(len(s.CUs), func(c *core.Config, i int) { c.Attrs.NumComputeUnits = s.CUs[i] })
	add(len(s.Types), func(c *core.Config, i int) { c.Type = s.Types[i] })
	return ax
}

// Size returns the number of grid points, saturating at MaxInt on
// overflow so size guards cannot be bypassed by wraparound.
func (s Space) Size() int {
	n := 1
	for _, ax := range s.axes() {
		if n > math.MaxInt/ax.n {
			return math.MaxInt
		}
		n *= ax.n
	}
	return n
}

// Dims returns the lengths of the non-empty axes in enumeration order
// — the mixed-radix shape of the grid. An empty Space has no
// dimensions and exactly one point (the base configuration).
func (s Space) Dims() []int {
	ax := s.axes()
	dims := make([]int, len(ax))
	for i, a := range ax {
		dims[i] = a.n
	}
	return dims
}

// At returns the configuration at index vector idx applied over base.
// idx must have one in-range digit per non-empty axis (see Dims);
// anything else is a programmer error and panics like an out-of-range
// slice index.
func (s Space) At(base core.Config, idx []int) core.Config {
	ax := s.axes()
	if len(idx) != len(ax) {
		panic("dse: index vector length does not match space dimensions")
	}
	cfg := base
	for k, a := range ax {
		a.apply(&cfg, idx[k])
	}
	return cfg
}

// Unflatten converts a flat enumeration position to its index vector.
func (s Space) Unflatten(flat int) []int {
	ax := s.axes()
	idx := make([]int, len(ax))
	for k := len(ax) - 1; k >= 0; k-- {
		idx[k] = flat % ax[k].n
		flat /= ax[k].n
	}
	return idx
}

// Neighbors returns the Hamming-distance-1 index vectors around idx:
// every vector that changes exactly one axis to an adjacent value
// (digit ±1, clamped at the axis ends). Axis value lists are walked in
// their declared order, so "adjacent" is whatever the caller's
// ordering means — ascending vector widths give powers-of-two steps.
// The result is deterministic: axis order first, -1 before +1.
func (s Space) Neighbors(idx []int) [][]int {
	ax := s.axes()
	if len(idx) != len(ax) {
		panic("dse: index vector length does not match space dimensions")
	}
	var nbs [][]int
	for k, a := range ax {
		for _, d := range []int{-1, +1} {
			v := idx[k] + d
			if v < 0 || v >= a.n {
				continue
			}
			nb := make([]int, len(idx))
			copy(nb, idx)
			nb[k] = v
			nbs = append(nbs, nb)
		}
	}
	return nbs
}

// Range is a contiguous run [Lo, Hi) of a Space's flat enumeration
// order — the unit a distributed sweep shards the grid into. An empty
// range (Lo == Hi) holds no points.
type Range = shard.Range

// Partition splits the grid's flat order into at most parts contiguous
// ranges of near-equal size (sizes differ by at most one point, larger
// shards first). Concatenating the ranges in order covers [0, Size())
// exactly once, so shard evaluation followed by in-order concatenation
// reproduces the flat enumeration — the property the cluster layer's
// shard merge relies on. parts <= 1, or a grid smaller than parts,
// yields fewer (possibly one) ranges; an empty grid yields one
// single-point range (the base configuration).
func (s Space) Partition(parts int) []Range {
	return shard.Split(s.Size(), parts)
}

// ConfigsRange enumerates the grid points at flat positions [lo, hi)
// over a base configuration, in flat order — exactly
// Configs(base)[lo:hi] without materializing the whole grid. Ranges
// outside [0, Size()] panic like an out-of-range slice index.
func (s Space) ConfigsRange(base core.Config, lo, hi int) []core.Config {
	if lo < 0 || hi < lo || hi > s.Size() {
		panic("dse: configuration range out of bounds")
	}
	out := make([]core.Config, 0, hi-lo)
	for flat := lo; flat < hi; flat++ {
		out = append(out, s.At(base, s.Unflatten(flat)))
	}
	return out
}

// Configs enumerates the grid over a base configuration in flat order:
// the first non-empty axis varies slowest, the last fastest, matching
// Unflatten.
func (s Space) Configs(base core.Config) []core.Config {
	cfgs := []core.Config{base}
	for _, a := range s.axes() {
		out := make([]core.Config, 0, len(cfgs)*a.n)
		for _, c := range cfgs {
			for i := 0; i < a.n; i++ {
				cc := c
				a.apply(&cc, i)
				out = append(out, cc)
			}
		}
		cfgs = out
	}
	return cfgs
}
