package dse

import (
	"fmt"
	"strconv"

	"mpstream/internal/kernel"
	"mpstream/internal/report"
)

// ParseSpace assembles a search grid from comma-separated per-axis
// flag values — the shared CLI vocabulary of mpopt and mpsweep. An
// empty string omits the axis.
func ParseSpace(vecs, loops, unrolls, simds, cus, dtypes string) (Space, error) {
	var s Space
	var err error
	if s.VecWidths, err = parseInts("vec", vecs); err != nil {
		return s, err
	}
	if s.Unrolls, err = parseInts("unrolls", unrolls); err != nil {
		return s, err
	}
	if s.SIMDs, err = parseInts("simds", simds); err != nil {
		return s, err
	}
	if s.CUs, err = parseInts("cus", cus); err != nil {
		return s, err
	}
	for _, f := range report.SplitList(loops) {
		lm, err := kernel.ParseLoopMode(f)
		if err != nil {
			return s, err
		}
		s.Loops = append(s.Loops, lm)
	}
	for _, f := range report.SplitList(dtypes) {
		dt, err := kernel.ParseDataType(f)
		if err != nil {
			return s, err
		}
		s.Types = append(s.Types, dt)
	}
	return s, nil
}

func parseInts(axis, s string) ([]int, error) {
	var out []int
	for _, f := range report.SplitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad -%s value %q", axis, f)
		}
		out = append(out, n)
	}
	return out, nil
}
