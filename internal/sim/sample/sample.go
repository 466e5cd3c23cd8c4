// Package sample implements sampled simulation for very large runs.
//
// Transaction-level simulation of a 1 GB STREAM pass is exact but slow
// when swept over many configurations. For steady-state streaming
// workloads, elapsed time is affine in the transaction count after a
// short ramp: T(n) = ramp + n/rate. Sampling measures two bounded windows
// of the simulation, fits that line, and extrapolates — the classic
// SMARTS-style trick specialized to monotone streaming request streams.
//
// The windows are prefixes of one stream, window and 2*window
// transactions long. Run simulates them one after the other; the
// device boards (device.Board.Sample) simulate only the long one and
// take the short one as an exact checkpoint of it (dram.Checkpoint),
// then Fit the two the same way.
//
// Callers choose a window large enough to cover several pattern periods
// (column-major walks wrap at row boundaries); the package tests pin
// sampled-vs-exact error on mid-size runs.
package sample

import "fmt"

// Measurement is one bounded simulation observation.
type Measurement struct {
	Txns    uint64
	Seconds float64
}

// Runner runs a bounded simulation of at most maxTxns transactions and
// reports how many transactions actually ran and the simulated time. A
// maxTxns of 0 means run to completion.
//
// Run calls a Runner sequentially, one window after the other on the
// caller's goroutine, so a Runner may share state across windows — a
// cache it resets, counters it accumulates, a tracer.
type Runner func(maxTxns uint64) Measurement

// Estimate is a predicted full-run time: exact when the run was
// simulated whole, otherwise extrapolated from two sampled windows.
type Estimate struct {
	Seconds float64
	Sampled bool
	// Rate is the fitted steady-state transaction rate (txns/second);
	// zero for exact runs.
	Rate float64
}

// Exact reports whether Run simulates totalTxns transactions whole
// rather than sampling them with the given window.
func Exact(totalTxns, window uint64) bool {
	return totalTxns == 0 || window == 0 || totalTxns <= 2*window
}

// Run predicts the full-run time for totalTxns transactions. If Exact
// holds, the simulation runs whole. Otherwise two windows, window and
// then 2*window transactions, are simulated in that order and Fit
// extrapolates through them. window must be positive for sampled runs;
// totalTxns of 0 runs exactly.
func Run(run Runner, totalTxns, window uint64) (Estimate, error) {
	if Exact(totalTxns, window) {
		m := run(0)
		return Estimate{Seconds: m.Seconds}, nil
	}
	m1 := run(window)
	m2 := run(2 * window)
	return Fit(m1, m2, totalTxns)
}

// Fit extrapolates two window measurements, m1 the shorter, to
// totalTxns transactions: it fits the affine model T(n) = a + b*n
// through them and returns T(totalTxns), never less than m2.Seconds,
// with Sampled set. Windows that did not grow in transactions or in
// time are an error.
func Fit(m1, m2 Measurement, totalTxns uint64) (Estimate, error) {
	if m1.Txns == 0 || m2.Txns <= m1.Txns {
		return Estimate{}, fmt.Errorf("sample: degenerate windows (%d, %d txns)", m1.Txns, m2.Txns)
	}
	if m2.Seconds <= m1.Seconds {
		return Estimate{}, fmt.Errorf("sample: non-increasing time (%g, %g)", m1.Seconds, m2.Seconds)
	}
	slope := (m2.Seconds - m1.Seconds) / float64(m2.Txns-m1.Txns)
	intercept := m1.Seconds - slope*float64(m1.Txns)
	sec := intercept + slope*float64(totalTxns)
	if sec < m2.Seconds {
		// Extrapolation must never predict less than what was simulated.
		sec = m2.Seconds
	}
	return Estimate{Seconds: sec, Sampled: true, Rate: 1 / slope}, nil
}
