package dram

// Concurrency tests, meant to run under -race: a Model may be shared
// across goroutines — acquire hands the cached arena to the first comer
// and fresh cold state to everyone else — so concurrent service calls
// must be data-race free AND return exactly what a lone call returns.

import (
	"math/rand"
	"sync"
	"testing"

	"mpstream/internal/sim/mem"
)

func TestConcurrentServiceSharedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg, _ := randomConfig(rng)
	m := New(cfg)
	build := randomStream(rng, cfg.BurstBytes)
	want := m.Service(build())

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				if got := m.Service(build()); got != want {
					t.Errorf("worker %d run %d diverged on shared model:\n got  %+v\n want %+v",
						w, run, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentServiceLoadedRoutedSharedModel(t *testing.T) {
	// The model is shared; each goroutine owns its streams (a Prerouted
	// carries a read cursor and is single-goroutine by contract).
	rng := rand.New(rand.NewSource(29))
	cfg, _ := randomConfig(rng)
	m := New(cfg)
	bgBuild := randomStream(rng, cfg.BurstBytes)
	probeBuild := func() mem.Source {
		c, _ := mem.NewChaseIter(3<<31, 256, cfg.BurstBytes, 128, 3)
		return c
	}
	opts := LoadedOptions{InterArrivalNs: 2.5, MaxTxns: 512, WarmupTxns: 64}
	const drain = 1 << 16
	want := m.ServiceLoadedRouted(m.Preroute(bgBuild(), drain), m.Preroute(probeBuild(), drain), opts)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bg := m.Preroute(bgBuild(), drain)
			pr := m.Preroute(probeBuild(), drain)
			for run := 0; run < 4; run++ {
				bg.Reset()
				pr.Reset()
				if got := m.ServiceLoadedRouted(bg, pr, opts); got != want {
					t.Errorf("worker %d run %d diverged on shared model:\n got  %+v\n want %+v",
						w, run, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}
