package targets

import (
	"strings"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
)

func TestAllOrder(t *testing.T) {
	devs := All()
	if len(devs) != 4 {
		t.Fatalf("got %d targets, want 4", len(devs))
	}
	for i, id := range IDs() {
		if devs[i].Info().ID != id {
			t.Errorf("target %d = %q, want %q", i, devs[i].Info().ID, id)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range IDs() {
		d, err := ByID(id)
		if err != nil {
			t.Fatalf("ByID(%q): %v", id, err)
		}
		if d.Info().ID != id {
			t.Errorf("ByID(%q) returned %q", id, d.Info().ID)
		}
	}
	if _, err := ByID("tpu"); err == nil || err.Error() != `device: unknown target "tpu"` {
		t.Errorf("unknown id: got %v, want device: unknown target \"tpu\"", err)
	}
}

// The paper's peak-bandwidth table (Section IV).
func TestPeakBandwidthTable(t *testing.T) {
	want := map[string][2]float64{
		"cpu":     {33, 35},   // "34 GB/s Peak BW"
		"gpu":     {336, 336}, // "336 GB/s Peak BW"
		"aocl":    {25, 26},   // "25 GB/s Peak BW"
		"sdaccel": {10, 10.7}, // "10 GB/s Peak BW"
	}
	for _, d := range All() {
		info := d.Info()
		band, ok := want[info.ID]
		if !ok {
			t.Fatalf("unexpected target %q", info.ID)
		}
		if info.PeakMemGBps < band[0] || info.PeakMemGBps > band[1] {
			t.Errorf("%s peak = %.1f, want in [%.1f, %.1f]", info.ID, info.PeakMemGBps, band[0], band[1])
		}
	}
}

// All targets compile the baseline kernels.
func TestAllTargetsCompileDefaults(t *testing.T) {
	for _, d := range All() {
		for _, op := range kernel.Ops() {
			k := kernel.Kernel{Op: op, VecWidth: 1}
			k.Loop = d.Info().OptimalLoop
			if _, err := d.Compile(k); err != nil {
				t.Errorf("%s: compile %s: %v", d.Info().ID, k.Name(), err)
			}
		}
	}
}

// The contract every target inherits from device.Board, checked on the
// four paper targets and the HMC variant: the advertised peak is the
// DRAM model's, a chase kernel is refused at Compile, and arrays beyond
// the board's memory are refused at Seconds, each error naming the
// target.
func TestBoardContract(t *testing.T) {
	for _, d := range append(All(), aocl.NewWithConfig(aocl.HMCConfig())) {
		info := d.Info()
		t.Run(info.ID, func(t *testing.T) {
			ms, ok := d.(device.MemorySystem)
			if !ok {
				t.Fatal("not a device.MemorySystem")
			}
			if got, want := info.PeakMemGBps, ms.MemModel().Config().PeakGBps(); got != want {
				t.Errorf("Info().PeakMemGBps = %v, DRAM model peak %v", got, want)
			}

			if _, err := d.Compile(kernel.Kernel{Op: kernel.Chase, VecWidth: 1}); err == nil || !strings.HasPrefix(err.Error(), info.ID+": ") {
				t.Errorf("compiling chase: error %v, want one prefixed %q", err, info.ID+": ")
			}

			k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
			k.Loop = info.OptimalLoop
			plan, err := d.Compile(k)
			if err != nil {
				t.Fatal(err)
			}
			eb := int64(k.ElemBytes())
			bytes := (info.MemBytes/int64(k.Op.Streams())/eb + 1) * eb
			_, err = plan.Seconds(device.Exec{ArrayBytes: bytes, Pattern: mem.ContiguousPattern()})
			if err == nil || !strings.HasPrefix(err.Error(), info.ID+": ") || !strings.Contains(err.Error(), "exceed device memory") {
				t.Errorf("%d-byte arrays: error %v, want %q naming the target", bytes, err, "exceed device memory")
			}
		})
	}
}

// Two patterns that visit the same addresses in the same order, a
// one-row column-major shape and a stride of the whole array, cost the
// same on every target, and a sampled run of either finds windows its
// predicted transaction count fits: the count follows the merged stream.
func TestSameStreamPatternsAgree(t *testing.T) {
	const bytes = 4 << 20
	for _, d := range All() {
		k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1, Loop: d.Info().OptimalLoop}
		plan, err := d.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		elems := int(bytes / int64(k.ElemBytes()))
		var secs []float64
		for _, p := range []mem.Pattern{{Kind: mem.ColMajor2D, Rows: 1, Cols: elems}, mem.StridedPattern(elems)} {
			d.Reset()
			s, err := plan.Seconds(device.Exec{ArrayBytes: bytes, Pattern: p})
			if err != nil {
				t.Fatalf("%s %+v: %v", d.Info().ID, p, err)
			}
			secs = append(secs, s)
		}
		if secs[0] != secs[1] {
			t.Errorf("%s: one-row column-major %g s, whole-array stride %g s", d.Info().ID, secs[0], secs[1])
		}
	}
}
