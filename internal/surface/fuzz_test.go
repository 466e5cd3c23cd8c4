package surface

import (
	"encoding/json"
	"testing"

	"mpstream/internal/device/targets"
	"mpstream/internal/obs"
)

// FuzzSurfaceConfig decodes arbitrary JSON into a Config. Validate must
// never panic, and a small configuration it accepts must generate on
// the gpu target within its transaction budget (every ladder point
// simulates at most WindowTxns, the idle probe ProbeHops) and produce a
// surface that JSON-encodes.
func FuzzSurfaceConfig(f *testing.F) {
	for _, seed := range []string{
		`{"rates":[1e308],"window_txns":256,"probe_hops":32,"array_bytes":1048576}`, // offered GB/s overflows
		`{"rates":[1e-308],"window_txns":256,"probe_hops":32,"array_bytes":1048576}`,
		`{"rates":[0.25,1.2],"window_txns":512,"probe_hops":64,"array_bytes":65536}`,
		`{"patterns":[{"kind":"strided","stride_elems":16}],"rw_ratios":[0.5],"rates":[0.9],"window_txns":1024,"probe_hops":16,"array_bytes":1048576,"knee_factor":1.5}`,
		`{"patterns":[{"kind":"colmajor"}],"rw_ratios":[1,0],"rates":[0.5],"window_txns":64,"probe_hops":16,"array_bytes":4096}`,
		`{"rates":[-1],"window_txns":8,"array_bytes":16}`,
	} {
		f.Add([]byte(seed))
	}
	dev, err := targets.ByID("gpu")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if json.Unmarshal(data, &cfg) != nil || cfg.Validate() != nil {
			return
		}
		d := cfg.WithDefaults()
		if d.WindowTxns > 1024 || d.ProbeHops > 1024 || d.Points() > 8 || d.ArrayBytes > 1<<20 {
			return
		}
		before, _ := obs.SimStats()
		s, err := generate(dev, cfg)
		if err != nil {
			return
		}
		txns, _ := obs.SimStats()
		if budget := uint64(d.Points()*d.WindowTxns + d.ProbeHops); txns-before > budget {
			t.Errorf("%d transactions simulated, budget %d", txns-before, budget)
		}
		if _, err := json.Marshal(s); err != nil {
			t.Errorf("surface does not encode: %v", err)
		}
	})
}
