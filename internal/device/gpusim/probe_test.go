package gpusim

import (
	"strings"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
)

// TestMemModel: the GPU exposes its GDDR5 subsystem to the surface
// layer, and the exposed model is the very one timing kernels.
func TestMemModel(t *testing.T) {
	d := New()
	var ms device.MemorySystem = d // compile-time assertion
	m := ms.MemModel()
	if m == nil {
		t.Fatal("MemModel returned nil")
	}
	if got := m.Config().Name; got != "gddr5" {
		t.Errorf("memory model %q, want gddr5", got)
	}
	if got, want := m.Config().PeakGBps(), d.Info().PeakMemGBps; got != want {
		t.Errorf("model peak %.1f differs from device peak %.1f", got, want)
	}
}

// TestCompileRejectsChase: the latency probe is not a throughput kernel.
func TestCompileRejectsChase(t *testing.T) {
	_, err := New().Compile(kernel.Kernel{Op: kernel.Chase, Type: kernel.Int32, VecWidth: 1})
	if err == nil || !strings.Contains(err.Error(), "surface") {
		t.Errorf("chase must be rejected with a pointer to the surface subsystem, got %v", err)
	}
}

// TestOccupancyClamps: register pressure cannot push residency outside
// the [MinWarpsPerSM, MaxWarpsPerSM] band.
func TestOccupancyClamps(t *testing.T) {
	cfg := DefaultConfig()
	d := NewWithConfig(cfg)
	scalar := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange}
	if got := d.Occupancy(scalar); got != cfg.MaxWarpsPerSM {
		t.Errorf("scalar kernel occupancy %d, want the %d cap", got, cfg.MaxWarpsPerSM)
	}
	// A pathological register file forces the lower clamp.
	tiny := cfg
	tiny.RegFilePerSM = 1024
	d2 := NewWithConfig(tiny)
	wide := kernel.Kernel{Op: kernel.Copy, Type: kernel.Float64, VecWidth: 16, Loop: kernel.NDRange}
	if got := d2.Occupancy(wide); got != cfg.MinWarpsPerSM {
		t.Errorf("starved occupancy %d, want the %d floor", got, cfg.MinWarpsPerSM)
	}
	// Monotone: wider vectors never raise residency.
	prev := 1 << 30
	for _, v := range []int{1, 2, 4, 8, 16} {
		k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Float64, VecWidth: v, Loop: kernel.NDRange}
		if got := d.Occupancy(k); got > prev {
			t.Errorf("occupancy rose from %d to %d at vec%d", prev, got, v)
		} else {
			prev = got
		}
	}
}

// TestTLBCapsLargeStrides: once a strided walk's page working set
// exceeds the TLB, translation throughput caps the bandwidth — the
// falloff beyond 64 MB in the paper's strided series.
func TestTLBCapsLargeStrides(t *testing.T) {
	d := New()
	k := kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NDRange}
	inTLB := measure(t, d, k, 16<<20, mem.ColMajorPattern())
	beyond := measure(t, d, k, 512<<20, mem.ColMajorPattern())
	if beyond > inTLB/2 {
		t.Errorf("TLB-thrashing walk at %.2f GB/s, want well below the resident %.2f", beyond, inTLB)
	}
	// The capped bandwidth approximates WalkRate page walks per access.
	cfg := DefaultConfig()
	wantGBps := cfg.WalkRate * 2 * 4 / 1e9 // 2 streams x 4-byte words
	if beyond > 2*wantGBps || beyond < wantGBps/4 {
		t.Errorf("TLB-bound bandwidth %.2f GB/s, want near %.2f", beyond, wantGBps)
	}
}

// TestNestedTrailsFlat: a nested single work-item loop has less memory
// parallelism than the flat variant.
func TestNestedTrailsFlat(t *testing.T) {
	d := New()
	flat := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.FlatLoop},
		4<<20, mem.ContiguousPattern())
	nested := measure(t, d, kernel.Kernel{Op: kernel.Copy, Type: kernel.Int32, VecWidth: 1, Loop: kernel.NestedLoop},
		4<<20, mem.ContiguousPattern())
	if nested >= flat {
		t.Errorf("nested loop %.3f GB/s not below flat %.3f", nested, flat)
	}
}

// TestMemoryLimit: configurations exceeding board memory are rejected
// at Seconds time with a clear message.
func TestMemoryLimit(t *testing.T) {
	d := New()
	c, err := d.Compile(ndCopy(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Seconds(device.Exec{ArrayBytes: 4 << 30, Pattern: mem.ContiguousPattern()})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("oversized arrays must be rejected, got %v", err)
	}
}

// TestResetRestoresColdState: a Reset between identical runs makes the
// second reproduce the first exactly.
func TestResetRestoresColdState(t *testing.T) {
	d := New()
	k := ndCopy(4)
	first := measure(t, d, k, 1<<20, mem.ContiguousPattern())
	d.Reset()
	second := measure(t, d, k, 1<<20, mem.ContiguousPattern())
	if first != second {
		t.Errorf("cold-state runs differ: %.6f vs %.6f GB/s", first, second)
	}
}
