package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/experiments"
	"mpstream/internal/kernel"
	"mpstream/internal/paperdata"
	"mpstream/internal/sim/mem"
)

// fig2Reference holds the recorded answers for Figure 2's fixed inputs:
// each design point's result digest and the traced run's simulated
// statistics. Regenerate after an intentional model change with
// go test -run TestRecordFig2Reference -record (see bench_test.go).
//
//go:embed reference/fig2.json
var fig2ReferenceJSON []byte

type fig2Reference struct {
	Points        map[string]string  `json:"points"`
	Counts        map[string]float64 `json:"counts"`
	CountsMinimal map[string]float64 `json:"counts_minimal"`
}

func loadFig2Reference() (fig2Reference, error) {
	var ref fig2Reference
	if err := json.Unmarshal(fig2ReferenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference/fig2.json: %w", err)
	}
	return ref, nil
}

// recordedCounts returns the recorded simulated statistics of a traced
// paper-fig2 run; ok is false for other workloads.
func recordedCounts(o options) (map[string]float64, bool) {
	if o.workload != "paper-fig2" {
		return nil, false
	}
	ref, err := loadFig2Reference()
	if err != nil {
		return nil, false
	}
	c := ref.Counts
	if o.minimal {
		c = ref.CountsMinimal
	}
	return c, c != nil
}

// fig2VerifyLimit mirrors Figure 2's rule: arrays up to 64 MB are
// materialized and verified, larger ones run timing-only.
const fig2VerifyLimit = 64 << 20

// fig2Point is one design point of Figure 2.
type fig2Point struct {
	dev    device.Device
	series string
	paper  []float64
	cfg    core.Config
}

func (p fig2Point) key() string { return fmt.Sprintf("%s/%d", p.series, p.cfg.ArrayBytes) }

// fig2 runs Figure 2's 80 design points in the figure's order: per
// target, the contiguous then the column-major series, sizes ascending
// (the FPGA series stop at 64 MB). The seed is unused: the paper fixes
// the inputs.
type fig2 struct {
	points []fig2Point
	// exp is the figure the last pass produced.
	exp *experiments.Experiment
}

func newFig2(o options) (fixture, error) {
	all := paperdata.Fig2Sizes()
	var pts []fig2Point
	for _, dev := range targets.All() {
		id := dev.Info().ID
		sizes := all
		if dev.Info().Kind == device.FPGA {
			sizes = all[:9]
		}
		if o.minimal {
			sizes = sizes[:2]
		}
		for _, pat := range []struct {
			suffix  string
			pattern mem.Pattern
			paper   []float64
		}{
			{"contig", mem.ContiguousPattern(), paperdata.Fig2Contig[id]},
			{"strided", mem.ColMajorPattern(), paperdata.Fig2Strided[id]},
		} {
			for _, s := range sizes {
				cfg := core.DefaultConfig()
				cfg.Ops = []kernel.Op{kernel.Copy}
				cfg.ArrayBytes = s
				cfg.NTimes = 2
				cfg.Verify = s <= fig2VerifyLimit
				cfg.Pattern = pat.pattern
				pts = append(pts, fig2Point{dev: dev, series: id + "-" + pat.suffix, paper: pat.paper, cfg: cfg})
			}
		}
	}
	return &fig2{points: pts}, nil
}

func (f *fig2) close() {}

func (f *fig2) pass(tr *tracer) []unit {
	units := make([]unit, 0, len(f.points))
	var e experiments.Experiment
	for _, p := range f.points {
		t0 := time.Now()
		pt := dse.SweepSizes(p.dev, p.cfg, []int64{p.cfg.ArrayBytes})[0]
		lat := time.Since(t0)
		u := unit{kind: "point", latency: lat, key: p.key(), err: pt.Err}
		if pt.Err == nil {
			u.digest = core.DigestResult(pt.Result)
		}
		units = append(units, u)

		if n := len(e.Series); n == 0 || e.Series[n-1].Name != p.series {
			e.Series = append(e.Series, experiments.Series{Name: p.series, Paper: p.paper})
		}
		s := &e.Series[len(e.Series)-1]
		s.X = append(s.X, float64(p.cfg.ArrayBytes)/(1<<20))
		s.GBps = append(s.GBps, pt.GBps(kernel.Copy))

		if tr != nil {
			tr.addMS("core.run_ms", lat)
			tr.replay(func() { replayRun(tr, p.dev, p.cfg) })
		}
	}
	f.exp = &e
	if tr != nil {
		tr.set("experiments.x_paper", e.GeoMeanDeviation())
		for _, s := range e.Series {
			tr.set("experiments.worst_factor."+s.Name, s.WorstFactor())
		}
	}
	return units
}

// fig2Referee answers from the recorded digests.
type fig2Referee struct{ points map[string]string }

func newFig2Referee(options) (referee, error) {
	ref, err := loadFig2Reference()
	if err != nil {
		return nil, err
	}
	return fig2Referee{points: ref.Points}, nil
}

func (r fig2Referee) reference(key string) (string, error) {
	d, ok := r.points[key]
	if !ok {
		return "", fmt.Errorf("no recorded digest for %s", key)
	}
	return d, nil
}

func (fig2Referee) close() {}
