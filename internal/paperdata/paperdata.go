// Package paperdata holds the series digitized from the figures of the
// MP-STREAM paper (Nabi & Vanderbauwhede, RAW@IPDPS 2018). Tests, the
// sweep driver and EXPERIMENTS.md compare simulated results against these
// numbers.
//
// Figures 1 and 2 print their values; Figures 3 and 4(a) are unlabeled
// log-scale bars, so only qualitative orderings are recorded for them,
// and Figure 4(b)'s SIMD/CU series are read off the plot (approximate).
package paperdata

import "mpstream/internal/kernel"

// Fig1Sizes returns the 9 array sizes of Figure 1(a): 1 KB .. 64 MB in
// x4 steps.
func Fig1Sizes() []int64 {
	sizes := make([]int64, 9)
	for i := range sizes {
		sizes[i] = 1024 << (2 * i)
	}
	return sizes
}

// Fig2Sizes returns the 11 array sizes of Figure 2: 1 KB .. 1 GB.
func Fig2Sizes() []int64 {
	sizes := make([]int64, 11)
	for i := range sizes {
		sizes[i] = 1024 << (2 * i)
	}
	return sizes
}

// VecWidths returns Figure 1(b)'s x axis.
func VecWidths() []int { return []int{1, 2, 4, 8, 16} }

// Fig1a maps target id to the copy bandwidth (GB/s) at each Fig1Sizes
// point: contiguous data, 32-bit words, vec 1, optimal loop management.
var Fig1a = map[string][]float64{
	"aocl":    {0.04, 0.14, 0.63, 1.14, 2.03, 2.23, 2.38, 2.53, 2.45},
	"sdaccel": {0.03, 0.09, 0.21, 0.35, 0.53, 0.64, 0.70, 0.74, 0.76},
	"cpu":     {0.05, 0.19, 0.72, 2.52, 7.44, 18.16, 27.04, 25.24, 25.10},
	"gpu":     {0.14, 0.95, 3.71, 14.74, 50.13, 112.79, 173.72, 204.5, 203.87},
}

// Fig1b maps target id to copy bandwidth (GB/s) at 4 MB for each
// VecWidths entry.
var Fig1b = map[string][]float64{
	"aocl":    {2.53, 4.61, 8.97, 14.85, 15.26},
	"sdaccel": {0.74, 1.41, 2.47, 4.14, 6.27},
	"cpu":     {32.03, 34.58, 37.04, 34.52, 36.03},
	"gpu":     {173.72, 194.30, 201.06, 175.30, 117.37},
}

// Fig2Contig maps target id to the contiguous copy series over Fig2Sizes.
// The FPGA series stop at 64 MB in the figure (9 points).
var Fig2Contig = map[string][]float64{
	"aocl":    {0.0, 0.1, 0.6, 1.1, 2.0, 2.2, 2.4, 2.5, 2.4},
	"sdaccel": {0.0, 0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.7, 0.8},
	"cpu":     {0.1, 0.2, 0.7, 2.5, 7.4, 18.2, 27.0, 25.2, 25.1, 26.7, 26.7},
	"gpu":     {0.1, 1.0, 3.7, 14.7, 50.1, 112.8, 173.7, 204.5, 203.9, 216.4, 220.1},
}

// Fig2Strided maps target id to the strided (column-major) copy series
// over Fig2Sizes; FPGA series have 9 points.
var Fig2Strided = map[string][]float64{
	"aocl":    {0.1, 0.2, 0.4, 0.7, 0.8, 1.7, 0.5, 0.4, 0.3},
	"sdaccel": {0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01},
	"cpu":     {0.04, 0.2, 0.4, 0.8, 3.9, 5.6, 5.3, 0.8, 0.8, 0.7, 0.8},
	"gpu":     {0.1, 0.6, 2.5, 7.6, 18.2, 26.6, 29.4, 29.5, 27.3, 9.9, 6.7},
}

// Fig3Order maps target id to loop-management modes from best to worst,
// as Figure 3's bars and the paper's text establish.
var Fig3Order = map[string][3]kernel.LoopMode{
	"aocl":    {kernel.FlatLoop, kernel.NestedLoop, kernel.NDRange},
	"sdaccel": {kernel.NestedLoop, kernel.NDRange, kernel.FlatLoop},
	"cpu":     {kernel.NDRange, kernel.FlatLoop, kernel.NestedLoop},
	"gpu":     {kernel.NDRange, kernel.FlatLoop, kernel.NestedLoop},
}

// Fig4bN is Figure 4(b)'s x axis (vector width, SIMD work-items or
// compute units).
func Fig4bN() []int { return []int{1, 2, 4, 8, 16} }

// Fig4b holds the three AOCL optimization-route series (GB/s). The
// vectorization row repeats Figure 1(b); SIMD and CU values are read off
// the log-scale plot and are approximate.
var Fig4b = map[string][]float64{
	"vector": {2.53, 4.61, 8.97, 14.85, 15.26},
	"simd":   {2.5, 4.4, 7.0, 7.5, 5.0},
	"cu":     {2.5, 3.8, 4.5, 3.2, 2.8},
}

// PeakGBps is the Section IV device table.
var PeakGBps = map[string]float64{
	"cpu":     34,
	"gpu":     336,
	"aocl":    25,
	"sdaccel": 10,
}
