// Package stats provides the summary statistics used by the benchmark
// runner and report generators: min/max/mean, median and standard
// deviation.
//
// STREAM-style benchmarks report the best (minimum) time across repetitions
// and the bandwidth derived from it; Summary keeps all the moments so both
// the headline number and its dispersion are available.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by constructors that need at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Summary holds summary statistics over a set of float64 samples.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64 // population standard deviation
	Median float64
	Sum    float64
}

// Summarize computes a Summary over xs. It returns ErrEmpty when xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(s.N))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}
