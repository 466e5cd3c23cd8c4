package surface

import (
	"testing"

	"mpstream/internal/device/targets"
)

// BenchmarkGenerate measures one default-sized surface on the GPU
// target — the hot path of a /v1/surface cache miss.
func BenchmarkGenerate(b *testing.B) {
	dev, err := targets.ByID("gpu")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{}.WithDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := generate(dev, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateCurve measures a single small curve, the unit of
// work a DSE knee-objective evaluation adds per design point.
func BenchmarkGenerateCurve(b *testing.B) {
	dev, err := targets.ByID("cpu")
	if err != nil {
		b.Fatal(err)
	}
	cfg := smallConfig()
	cfg.RWRatios = cfg.RWRatios[:1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := generate(dev, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
