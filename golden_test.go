// Golden-parity harness: recorded digests of Result/Surface/search
// outputs for every target under representative configurations.
//
// The simulator is deterministic, so each (target, config) pair has
// exactly one correct answer. These tests pin that answer as a SHA-256
// digest of its canonical JSON encoding (core.DigestJSON), keyed by the
// request fingerprint. Any change to the simulator hot path — the dram
// service loops, the request generators, the kernel functional path,
// the surface ladder — must reproduce every digest bit-for-bit, which
// is what lets aggressive optimization land without drift.
//
// Regenerate after an *intentional* model change with:
//
//	go test -run Golden -update
//
// and review the diff of testdata/golden/digests.json like any other
// source change: a digest that moved is a simulation result that moved.
package mpstream_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/experiments"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

var updateGolden = flag.Bool("update", false, "regenerate golden digests")

const goldenPath = "testdata/golden/digests.json"

// goldenEntry is one recorded answer: the fingerprint names the
// question, the digest names the byte-identical answer.
type goldenEntry struct {
	Fingerprint string `json:"fingerprint,omitempty"`
	Digest      string `json:"digest"`
}

var (
	goldenMu   sync.Mutex
	goldenSeen map[string]goldenEntry
)

// checkGolden compares (or, under -update, records) one digest.
func checkGolden(t *testing.T, key, fingerprint, digest string) {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if *updateGolden {
		if goldenSeen == nil {
			goldenSeen = make(map[string]goldenEntry)
		}
		goldenSeen[key] = goldenEntry{Fingerprint: fingerprint, Digest: digest}
		return
	}
	want, ok := loadGolden(t)[key]
	if !ok {
		t.Fatalf("no golden recorded for %q; run: go test -run Golden -update", key)
	}
	if want.Fingerprint != "" && fingerprint != "" && want.Fingerprint != fingerprint {
		t.Fatalf("%s: fingerprint drifted:\n  got  %s\n  want %s\n(the question changed, not just the answer)", key, fingerprint, want.Fingerprint)
	}
	if want.Digest != digest {
		t.Errorf("%s: result digest drifted:\n  got  %s\n  want %s\nthe optimized path no longer reproduces the recorded result byte-for-byte", key, digest, want.Digest)
	}
}

var (
	goldenLoadOnce sync.Once
	goldenLoaded   map[string]goldenEntry
)

func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	goldenLoadOnce.Do(func() {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			return
		}
		_ = json.Unmarshal(b, &goldenLoaded)
	})
	if goldenLoaded == nil {
		t.Fatalf("missing %s; run: go test -run Golden -update", goldenPath)
	}
	return goldenLoaded
}

// TestMain flushes recorded digests after -update runs.
func TestMain(m *testing.M) {
	code := m.Run()
	if *updateGolden && goldenSeen != nil {
		// Keys sort for a stable, reviewable file.
		keys := make([]string, 0, len(goldenSeen))
		for k := range goldenSeen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]goldenEntry, len(goldenSeen))
		for _, k := range keys {
			ordered[k] = goldenSeen[k]
		}
		b, err := json.MarshalIndent(ordered, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(goldenPath), 0o755)
		}
		if err == nil {
			err = os.WriteFile(goldenPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "golden update failed:", err)
			code = 1
		} else {
			fmt.Printf("golden: wrote %d digests to %s\n", len(goldenSeen), goldenPath)
		}
	}
	os.Exit(code)
}

// goldenRunConfigs are the representative benchmark configurations:
// each exercises a distinct hot-path shape (contiguous vs strided vs
// column-major walks, int vs double, scalar vs vectorized, one- vs
// two-input kernels) at an array size small enough to simulate exactly.
func goldenRunConfigs() map[string]core.Config {
	base := core.DefaultConfig()
	base.ArrayBytes = 1 << 20
	base.NTimes = 2

	contig := base

	strided := base
	strided.Pattern = mem.StridedPattern(8)
	strided.Ops = []kernel.Op{kernel.Copy, kernel.Triad}

	colmajor := base
	colmajor.Pattern = mem.ColMajorPattern()
	colmajor.Ops = []kernel.Op{kernel.Scale}

	vec := base
	vec.Type = kernel.Float64
	vec.VecWidth = 4
	vec.Ops = []kernel.Op{kernel.Add, kernel.Triad}

	return map[string]core.Config{
		"contig":   contig,
		"strided8": strided,
		"colmajor": colmajor,
		"vec4-f64": vec,
	}
}

// TestGoldenRun pins core.Run for every target x representative config.
func TestGoldenRun(t *testing.T) {
	cfgs := goldenRunConfigs()
	names := sortedKeys(cfgs)
	for _, id := range targets.IDs() {
		for _, name := range names {
			cfg := cfgs[name]
			t.Run(id+"/"+name, func(t *testing.T) {
				dev, err := targets.ByID(id)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Run(dev, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "run/"+id+"/"+name, cfg.Fingerprint(id), core.DigestResult(res))
			})
		}
	}
}

// goldenSurfaceConfig is a small-but-real surface: two patterns, two
// ratios, a three-rung ladder.
func goldenSurfaceConfig() surface.Config {
	return surface.Config{
		Patterns:   []mem.Pattern{mem.ContiguousPattern(), mem.StridedPattern(16)},
		RWRatios:   []float64{1, 0.5},
		Rates:      []float64{0.25, 0.75, 1.2},
		ArrayBytes: 4 << 20,
		WindowTxns: 1024,
		ProbeHops:  64,
	}
}

// TestGoldenSurface pins the bandwidth-latency surface per target, and
// with it the whole Preroute/ServiceLoadedRouted open-loop path.
func TestGoldenSurface(t *testing.T) {
	cfg := goldenSurfaceConfig()
	for _, id := range targets.IDs() {
		t.Run(id, func(t *testing.T) {
			dev, err := targets.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.RunSurfaceContext(context.Background(), dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "surface/"+id, "", core.DigestJSON(s))
		})
	}
}

// TestGoldenSweep pins a size sweep (the Figure 1(a)/2 shape): several
// exact-simulation sizes plus one large enough to take the sampled
// path, per target.
func TestGoldenSweep(t *testing.T) {
	base := core.DefaultConfig()
	base.NTimes = 2
	base.Ops = []kernel.Op{kernel.Copy}
	sizes := []int64{1 << 18, 1 << 20, 64 << 20}
	for _, id := range targets.IDs() {
		t.Run(id, func(t *testing.T) {
			dev, err := targets.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			pts := dse.SweepSizes(dev, base, sizes)
			results := make([]*core.Result, 0, len(pts))
			for _, p := range pts {
				if p.Err != nil {
					t.Fatal(p.Err)
				}
				results = append(results, p.Result)
			}
			checkGolden(t, "sweep/"+id, "", core.DigestJSON(results))
		})
	}
}

// TestGoldenExperiments pins the experiments that measure one-axis
// design-space slices and size series, whole, as mpsweep renders them.
func TestGoldenExperiments(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1b", "fig3", "fig4b", "unroll", "dtype", "hmc"} {
		t.Run(id, func(t *testing.T) {
			run, err := experiments.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			e, err := run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "experiment/"+id, "", core.DigestJSON(e))
		})
	}
}

// TestGoldenOptimize pins a seeded stochastic search: the RNG walk, the
// dedup engine and every simulated evaluation must all reproduce.
func TestGoldenOptimize(t *testing.T) {
	base := core.DefaultConfig()
	base.ArrayBytes = 1 << 20
	base.NTimes = 2
	space := dse.Space{
		VecWidths: []int{1, 4, 16},
		Loops:     []kernel.LoopMode{kernel.NDRange, kernel.FlatLoop},
		Unrolls:   []int{1, 4},
	}
	opts := search.Options{Strategy: "anneal", Budget: 8, Seed: 42}
	for _, id := range []string{"aocl", "cpu"} {
		t.Run(id, func(t *testing.T) {
			dev, err := targets.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := search.Run(dev, base, space, kernel.Triad, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "optimize/"+id, "", core.DigestJSON(res))
		})
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
