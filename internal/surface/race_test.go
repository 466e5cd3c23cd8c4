package surface

// Concurrency tests, meant to run under -race: the parallel rung
// fan-out must be data-race free and indistinguishable from the
// sequential ladder, whatever the worker count.

import (
	"reflect"
	"sync"
	"testing"

	"mpstream/internal/device/targets"
)

func TestParallelGenerateMatchesSequential(t *testing.T) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	gen := func(workers int) *Surface {
		defer func(prev int) { maxWorkers = prev }(maxWorkers)
		maxWorkers = workers
		s, err := generate(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq := gen(1)
	for _, workers := range []int{2, 4} {
		if got := gen(workers); !reflect.DeepEqual(got, seq) {
			t.Fatalf("%d-worker surface differs from sequential", workers)
		}
	}
}

func TestConcurrentGenerate(t *testing.T) {
	// Whole surfaces generated concurrently against one target: each
	// Generate builds its own model but shares the target registry and
	// the parallel fan-out machinery.
	cfg := smallConfig()
	dev, err := targets.ByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	want, err := generate(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := generate(dev, cfg)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("worker %d produced a different surface", w)
			}
		}(w)
	}
	wg.Wait()
}
