package surface

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mpstream/internal/device/targets"
)

// A pooled scratch holds streams an earlier call decoded, possibly under
// another target's memory model. Surfaces generated on gpu, cpu and gpu
// in turn, sequentially and in parallel, must equal the ones generated
// on an empty pool, where every scratch is fresh.
func TestPooledScratchAcrossTargets(t *testing.T) {
	// One curve: every call's first rung asks for the (pattern, ratio)
	// the pooled scratch last decoded, so only the stale mark makes it
	// decode again under the new model.
	cfg := smallConfig()
	cfg.RWRatios = cfg.RWRatios[:1]
	encode := func(id string) []byte {
		dev, err := targets.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := generate(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func(prev int) { maxWorkers = prev }(maxWorkers)
			maxWorkers = workers
			want := map[string][]byte{}
			for _, id := range []string{"gpu", "cpu"} {
				scratchPool = sync.Pool{New: scratchPool.New}
				want[id] = encode(id)
			}
			if bytes.Equal(want["gpu"], want["cpu"]) {
				t.Fatal("the check needs targets whose surfaces differ")
			}
			for round := 0; round < 3; round++ {
				for _, id := range []string{"gpu", "cpu", "gpu"} {
					if got := encode(id); !bytes.Equal(got, want[id]) {
						t.Fatalf("round %d: %s surface on a pooled scratch differs from a fresh one:\n got %s\nwant %s", round, id, got, want[id])
					}
				}
			}
		})
	}
}
