// Package shard holds the contiguous range-splitting primitive every
// distributed-work layer shards with: sweep grids split their flat
// enumeration order (dse.Space.Partition) and surfaces split their
// curve axis (surface.Config.PartitionCurves) through the same
// function, so the invariant the fleet merge depends on — contiguous,
// covering exactly once, balanced within one unit, larger shards
// first — lives in exactly one place.
package shard

// Range is a contiguous run [Lo, Hi) of some flat work order.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Split divides [0, n) into at most parts contiguous ranges of
// near-equal size: sizes differ by at most one unit, larger ranges
// first, and concatenating the ranges in order covers [0, n) exactly
// once. parts outside [1, n] is clamped, so n >= 1 always yields at
// least one range.
func Split(n, parts int) []Range {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([]Range, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		size := n / parts
		if i < n%parts {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// UnitCount sizes a partition of n work units with a per-shard size
// floor: the largest shard count such that every shard Split produces
// still holds at least unit work units. This is how the fleet
// scheduler over-partitions a job for its pull-based queue — many
// small shards bounded from below by granularity, not from above by a
// fleet-size cap. unit < 1 is treated as 1 (one shard per unit).
func UnitCount(n, unit int) int {
	if unit < 1 {
		unit = 1
	}
	parts := n / unit
	if parts < 1 {
		parts = 1
	}
	return parts
}
