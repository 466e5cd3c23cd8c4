package dram

// Checkpoint tests: a run that takes a checkpoint must report, for the
// shorter run, exactly what a separate run reports, and for itself
// exactly what it reports without one.

import (
	"math/rand"
	"testing"

	"mpstream/internal/obs"
	"mpstream/internal/sim/mem"
)

// checkCheckpoint runs one checkpoint of window w over build's stream,
// at a bound or at a pause, against the two separate runs it stands in
// for.
func checkCheckpoint(t *testing.T, m *Model, build func() mem.Source, w uint64, pause bool) {
	t.Helper()
	if pause {
		n := int(w)
		var cp Checkpoint
		long := m.ServiceCheckpoint(mem.NewPausingLimit(build(), n, n), 0, &cp)
		if want := m.Service(mem.NewLimit(build(), n)); cp.Result != want {
			t.Fatalf("window %d: checkpoint at the pause %+v, limited run %+v", w, cp.Result, want)
		}
		if want := m.Service(mem.NewLimit(build(), 2*n)); long != want {
			t.Fatalf("window %d: paused long run %+v, limited run %+v", w, long, want)
		}
		return
	}
	cp := Checkpoint{At: w}
	src, ref := build(), build()
	long := m.ServiceCheckpoint(src, 2*w, &cp)
	if want := m.ServiceBounded(build(), w); cp.Result != want {
		t.Fatalf("window %d: checkpoint at the bound %+v, bounded run %+v", w, cp.Result, want)
	}
	if want := m.ServiceBounded(ref, 2*w); long != want {
		t.Fatalf("window %d: long run %+v, bounded run %+v", w, long, want)
	}
	if got, want := unread(src), unread(ref); got != want {
		t.Fatalf("window %d: the long run left %d requests unread, the bounded run %d", w, got, want)
	}
}

// Every window from one request to past the stream's end, on random
// configurations and streams: so every batch boundary b of these
// streams has its window b+1, whose checkpoint truncates the crossing
// batch to a single request, and the windows near the end stop inside
// the reorder read-ahead or never fork.
func TestCheckpointEveryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		cfg, _ := randomConfig(rng)
		build := randomStream(rng, cfg.BurstBytes)
		m := New(cfg)
		total := m.Service(build()).Txns
		for w := uint64(1); w <= min(total+2, 600); w++ {
			checkCheckpoint(t, m, build, w, false)
			checkCheckpoint(t, m, build, w, true)
		}
	}
}

// A checkpoint adds to the DRAM request count only the transactions its
// copy issues after the fork: the ones the run had issued before it are
// counted once, by the run.
func TestCheckpointCountsOnlyTheCopysTail(t *testing.T) {
	m := New(Config{Name: "count", Channels: 2, BanksPerChannel: 8, RowBytes: 2048,
		BurstBytes: 64, BusGBps: 12.8, RowMissNs: 45, TurnaroundNs: 7.5, InterleaveBytes: 256})
	src, err := mem.NewIter(mem.ContiguousPattern(), 0, 8192, 64, mem.Read, 1)
	if err != nil {
		t.Fatal(err)
	}
	var shared uint64
	cp := Checkpoint{At: 4000, Fork: func() { shared = m.arena.res.Txns }}
	before, _ := obs.SimStats()
	long := m.ServiceCheckpoint(src, 0, &cp)
	after, _ := obs.SimStats()
	if shared == 0 || shared >= cp.Result.Txns {
		t.Fatalf("the run had issued %d of the checkpoint's %d transactions at the fork; want some, not all", shared, cp.Result.Txns)
	}
	if added, want := after-before, long.Txns+cp.Result.Txns-shared; added != want {
		t.Errorf("a checkpointed run added %d DRAM requests, want %d (%d of the run, %d of the copy's tail)",
			added, want, long.Txns, cp.Result.Txns-shared)
	}
}

// FuzzCheckpoint draws a configuration, a stream shape and a window,
// and holds a checkpoint at a bound or at a pause to separate runs.
func FuzzCheckpoint(f *testing.F) {
	f.Add(int64(1), uint16(1), false)
	f.Add(int64(2), uint16(37), true)
	f.Add(int64(3), uint16(300), false)
	f.Add(int64(4), uint16(1000), true)
	f.Add(int64(5), uint16(5000), false)
	f.Fuzz(func(t *testing.T, seed int64, window uint16, pause bool) {
		if window == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		cfg, _ := randomConfig(rng)
		build := randomStream(rng, cfg.BurstBytes)
		checkCheckpoint(t, New(cfg), build, uint64(window), pause)
	})
}
