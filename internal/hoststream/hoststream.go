// Package hoststream is a real STREAM benchmark in pure Go: it measures
// the actual sustained memory bandwidth of the machine running this
// process, with wall-clock timing and goroutine-parallel kernels.
//
// It plays the role of the original McCalpin STREAM in the paper's story:
// a reality anchor next to the simulated devices, and a useful library in
// its own right. Conventions match STREAM: three arrays, four kernels,
// NTIMES repetitions, best time excluding the first iteration, bandwidth
// of 2x or 3x the array bytes.
package hoststream

import (
	"fmt"
	"runtime"
	"time"

	"mpstream/internal/kernel"
	"mpstream/internal/stats"
)

// Config sizes the host benchmark.
type Config struct {
	// Elems is the per-array element count (float64 elements). STREAM's
	// guidance: at least 4x the last-level cache.
	Elems int
	// NTimes is the repetition count (default 5).
	NTimes int
	// Workers is the goroutine count (default GOMAXPROCS).
	Workers int
	// Scalar is q (default 3).
	Scalar float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.NTimes == 0 {
		c.NTimes = 5
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Scalar == 0 {
		c.Scalar = 3
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Elems <= 0:
		return fmt.Errorf("hoststream: elems %d must be positive", c.Elems)
	case c.NTimes < 1:
		return fmt.Errorf("hoststream: ntimes %d must be >= 1", c.NTimes)
	case c.Workers < 1:
		return fmt.Errorf("hoststream: workers %d must be >= 1", c.Workers)
	}
	return nil
}

// KernelResult is the host measurement for one kernel.
type KernelResult struct {
	Op          kernel.Op
	BytesMoved  int64
	Times       []float64
	BestSeconds float64
	AvgSeconds  float64
	GBps        float64
}

// Result is a full host STREAM run.
type Result struct {
	Config  Config
	Workers int
	Kernels []KernelResult
}

// Kernel returns the result for op, or nil.
func (r *Result) Kernel(op kernel.Op) *KernelResult {
	for i := range r.Kernels {
		if r.Kernels[i].Op == op {
			return &r.Kernels[i]
		}
	}
	return nil
}

// Run executes host STREAM.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Elems
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = 2
		c[i] = 0.5
	}

	res := &Result{Config: cfg, Workers: cfg.Workers}
	for _, op := range kernel.Ops() {
		kr := KernelResult{Op: op, BytesMoved: op.BytesMoved(int64(n) * 8)}
		for iter := 0; iter < cfg.NTimes; iter++ {
			start := time.Now()
			parallelApply(op, cfg.Scalar, a, b, c, cfg.Workers)
			kr.Times = append(kr.Times, time.Since(start).Seconds())
		}
		considered := kr.Times
		if len(considered) > 1 {
			considered = considered[1:]
		}
		s, err := stats.Summarize(considered)
		if err != nil {
			return nil, err
		}
		kr.BestSeconds = s.Min
		kr.AvgSeconds = s.Mean
		if kr.BestSeconds > 0 {
			kr.GBps = float64(kr.BytesMoved) / kr.BestSeconds / 1e9
		}
		// Verify before moving on (results feed the next op's inputs in
		// classic STREAM; here inputs are fixed, so check a directly).
		want := kernel.Expected(op, cfg.Scalar, 2, 0.5)
		for i := 0; i < n; i += max(1, n/64) {
			if a[i] != want {
				return nil, fmt.Errorf("hoststream: %v validation failed at %d: %v != %v", op, i, a[i], want)
			}
		}
		res.Kernels = append(res.Kernels, kr)
	}
	return res, nil
}

// parallelApply splits the arrays across workers and applies the kernel.
func parallelApply(op kernel.Op, q float64, a, b, c []float64, workers int) {
	n := len(a)
	if workers > n {
		workers = n
	}
	done := make(chan struct{}, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			defer func() { done <- struct{}{} }()
			if lo >= hi {
				return
			}
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			switch op {
			case kernel.Copy:
				copy(aa, bb)
			case kernel.Scale:
				for i := range aa {
					aa[i] = q * bb[i]
				}
			case kernel.Add:
				for i := range aa {
					aa[i] = bb[i] + cc[i]
				}
			case kernel.Triad:
				for i := range aa {
					aa[i] = bb[i] + q*cc[i]
				}
			}
		}(lo, hi)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
