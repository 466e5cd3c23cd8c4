package targets

import (
	"fmt"
	"testing"

	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/gpusim"
	"mpstream/internal/device/sdaccel"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/sim/mem"
	"mpstream/internal/sim/sample"
)

// repeatWindow is the sampling window of the repeat-parity devices: the
// paper targets with their window shrunk, so that a run on the sampled
// side of each model's exact/sampled threshold takes milliseconds. (Much
// smaller windows stop covering the GPU's column-major sector-reuse
// period and sampling rejects them.)
const repeatWindow = 1 << 16

// Array sizes on either side of every model's threshold at repeatWindow:
// a copy over repeatSmall stays exact even uncoalesced, one over
// repeatLarge is sampled even at the widest coalescing window (512 B).
const (
	repeatSmall = 128 << 10
	repeatLarge = 64 << 20
)

// repeatTargets returns fresh instances of the four targets, in figure
// order, sampling with repeatWindow.
func repeatTargets() []device.Device {
	a, s, c, g := aocl.DefaultConfig(), sdaccel.DefaultConfig(), cpusim.DefaultConfig(), gpusim.DefaultConfig()
	a.SampleWindowTxns, s.SampleWindowTxns = repeatWindow, repeatWindow
	c.SampleWindowTxns, g.SampleWindowTxns = repeatWindow, repeatWindow
	return []device.Device{aocl.NewWithConfig(a), sdaccel.NewWithConfig(s), cpusim.NewWithConfig(c), gpusim.NewWithConfig(g)}
}

// dramRequests reads the process-global count of simulated DRAM
// transactions.
func dramRequests() uint64 {
	n, _ := obs.SimStats()
	return n
}

// seconds compiles k on dev and times one invocation over e.
func seconds(t *testing.T, dev device.Device, k kernel.Kernel, e device.Exec) float64 {
	t.Helper()
	c, err := dev.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := c.Seconds(e)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// A repeated invocation of a plan whose answer cannot depend on device
// state returns the first answer without simulating again; an exact CPU
// run that leaves lines its repetition can hit in the LLC, as every
// exact size here does, simulates every time
// (TestCPUSelfFlushingRepetitions covers one that flushes the LLC).
func TestRepeatParity(t *testing.T) {
	patterns := []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16), mem.ColMajorPattern()}
	for i, id := range IDs() {
		for _, p := range patterns {
			for _, size := range []int64{repeatSmall, repeatLarge} {
				t.Run(fmt.Sprintf("%s/%v/%d", id, p.Kind, size), func(t *testing.T) {
					dev := repeatTargets()[i]
					k := kernel.Kernel{Op: kernel.Copy, VecWidth: 1}
					k.Loop = dev.Info().OptimalLoop
					a := device.Exec{ArrayBytes: size, Pattern: p}
					elems := a.Elems(k)
					sampled := size == repeatLarge
					if sample.Exact(device.TxnCount(k.Op, elems, k.ElemBytes(), p, 512), repeatWindow) == sampled ||
						sample.Exact(device.TxnCount(k.Op, elems, k.ElemBytes(), p, k.ElemBytes()), repeatWindow) == sampled {
						t.Fatalf("size %d is not on the %v side of the threshold for every window", size, sampled)
					}

					plan, err := dev.Compile(k)
					if err != nil {
						t.Fatal(err)
					}
					first, err := plan.Seconds(a)
					if err != nil {
						t.Fatal(err)
					}
					before := dramRequests()
					second, err := plan.Seconds(a)
					if err != nil {
						t.Fatal(err)
					}
					simulated := dramRequests() - before

					dev.Reset()
					if fresh := seconds(t, dev, k, a); fresh != first {
						t.Errorf("first answer %v differs from a fresh plan's %v after Reset", first, fresh)
					}

					if id == "cpu" && !sampled {
						if simulated == 0 {
							t.Error("an exact CPU repeat must simulate again: it runs against the warm LLC")
						}
						return
					}
					if second != first {
						t.Errorf("repeat answered %v, first call %v", second, first)
					}
					if simulated != 0 {
						t.Errorf("repeat simulated %d DRAM requests, want 0", simulated)
					}

					// Interleaving another Exec, on the same side of the
					// threshold, must not leak its answer into a's, nor
					// a's into it.
					b := device.Exec{ArrayBytes: size, Pattern: mem.ContiguousPattern()}
					if b == a {
						b.Pattern = mem.ColMajorPattern()
					}
					want := seconds(t, repeatTargets()[i], k, b)
					if want == first {
						t.Fatalf("the check needs Execs with different answers: %+v and %+v both take %v", a, b, want)
					}
					if other, err := plan.Seconds(b); err != nil || other != want {
						t.Errorf("interleaved Exec answered %v (%v), a fresh plan %v", other, err, want)
					}
					if again, err := plan.Seconds(a); err != nil || again != first {
						t.Errorf("after an interleaved Exec the first answered %v (%v), want %v", again, err, first)
					}
				})
			}
		}
	}
}
