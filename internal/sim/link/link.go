// Package link models host-device interconnects (PCIe-style) with the
// standard latency + bandwidth + per-transfer setup model.
//
// MP-STREAM uses the link twice: explicitly, when the stream source or
// destination is host memory (the benchmark's "source/destination of
// streams" parameter), and implicitly, because every kernel launch and
// completion crosses the link — the overhead that dominates small-array
// bandwidth in Figure 1(a).
package link

import "fmt"

// Config describes one direction-symmetric link.
type Config struct {
	Name string
	// GBps is the effective per-direction data bandwidth in GB/s (1e9).
	GBps float64
	// LatencyUs is the one-way message latency in microseconds.
	LatencyUs float64
	// SetupUs is the per-transfer software/DMA setup cost in microseconds
	// (driver call, descriptor ring, doorbell).
	SetupUs float64
	// MaxPayloadBytes caps a single DMA transfer; larger transfers split
	// and pay the setup once per chunk. Zero means unlimited.
	MaxPayloadBytes uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.GBps <= 0:
		return fmt.Errorf("link %q: bandwidth must be positive", c.Name)
	case c.LatencyUs < 0 || c.SetupUs < 0:
		return fmt.Errorf("link %q: latencies must be non-negative", c.Name)
	}
	return nil
}

// Link is a configured interconnect. The zero value is not usable; use New.
type Link struct {
	cfg Config
}

// New builds a link, panicking on invalid configuration (configurations
// are compile-time constants of the device packages).
func New(cfg Config) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Link{cfg: cfg}
}

// TransferSeconds returns the time to move n bytes one way: latency +
// per-chunk setup + n/bandwidth.
func (l *Link) TransferSeconds(n uint64) float64 {
	if n == 0 {
		return 0
	}
	chunks := uint64(1)
	if l.cfg.MaxPayloadBytes > 0 {
		chunks = (n + l.cfg.MaxPayloadBytes - 1) / l.cfg.MaxPayloadBytes
	}
	return l.cfg.LatencyUs*1e-6 +
		float64(chunks)*l.cfg.SetupUs*1e-6 +
		float64(n)/(l.cfg.GBps*1e9)
}
