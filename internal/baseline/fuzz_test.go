package baseline

// FuzzCompare drives Compare with arbitrary finite references,
// measurements and bands — a run reference with one kernel and a
// surface reference with one curve of one rung — and checks the verdict
// algebra: Compare never panics, a non-positive band skips its metric, a
// measurement whose computed |delta| equals its band passes on either
// side of the reference, the verdict is fail exactly when some margin is
// positive, and the report always encodes as JSON.
//
// Run with: go test -fuzz FuzzCompare ./internal/baseline; the f.Add
// seeds below run on every plain `go test`.

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func FuzzCompare(f *testing.F) {
	f.Add(100.0, 95.0, 2000.0, 2100.0, 50.0, 40.0, 0.05, 0.05, 0.1, 0.5, false)
	f.Add(5e-324, 10.0, 1.0, 1.0, 0.0, 3.0, 0.05, -1.0, 0.0, 0.0, false)
	f.Add(0.0, 0.0, -3.0, 7.0, 1e308, -1e308, 1e-300, 10.0, -0.5, 0.9, true)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, true)
	f.Fuzz(func(t *testing.T, refG, gotG, refNs, gotNs, refKnee, gotKnee, gbpsBand, nsBand, kneeBand, warn float64, partial bool) {
		for _, v := range []float64{refG, gotG, refNs, gotNs, refKnee, gotKnee, gbpsBand, nsBand, kneeBand, warn} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		tol := Tolerance{GBpsFrac: gbpsBand, NsFrac: nsBand, KneeFrac: kneeBand, RungFrac: gbpsBand, WarnFrac: warn}
		run := Entry{Name: "fuzz-run", Kind: KindRun, Reference: Reference{
			Kernels: []KernelRef{{Op: "copy", GBps: refG, NsPerIter: refNs}},
		}}
		surf := Entry{Name: "fuzz-surface", Kind: KindSurface, Reference: Reference{
			Curves: []CurveRef{{
				Pattern: "contiguous", ReadFrac: 1, KneeRate: refNs, KneeGBps: refKnee, IdleLatencyNs: refNs,
				Rungs: []RungRef{{Rate: 1, GBps: refG}},
			}},
			MinKneeGBps: refKnee,
		}}
		measured := Reference{
			Kernels: []KernelRef{{Op: "copy", GBps: gotG, NsPerIter: gotNs}},
			Curves: []CurveRef{{
				Pattern: "contiguous", ReadFrac: 1, KneeRate: gotNs, KneeGBps: gotKnee, IdleLatencyNs: gotNs,
				Rungs: []RungRef{{Rate: 1, GBps: gotG}},
			}},
			MinKneeGBps: gotKnee,
		}
		for _, e := range []Entry{run, surf} {
			checkReport(t, Compare(e, measured, tol, partial), tol)
		}

		// Exactly at the band edge, on both sides of the reference: the
		// band is the delta Compare itself computes.
		for _, got := range []float64{gotG, 2*refG - gotG} {
			band := math.Abs(relDelta(refG, got))
			if math.IsInf(got, 0) || band <= 0 {
				continue
			}
			rep := Compare(run, Reference{Kernels: []KernelRef{{Op: "copy", GBps: got, NsPerIter: refNs}}},
				Tolerance{GBpsFrac: band, NsFrac: -1}, false)
			if rep.Verdict == VerdictFail {
				t.Fatalf("reference %v, measured %v at band %v: verdict fail, want the edge to pass: %v",
					refG, got, band, rep.Violations)
			}
		}
	})
}

// checkReport asserts the verdict algebra of one report.
func checkReport(t *testing.T, rep Report, tol Tolerance) {
	t.Helper()
	fail := false
	for _, m := range rep.Metrics {
		if m.Margin > 0 {
			fail = true
		}
		band := m.Band
		switch {
		case strings.HasPrefix(m.Name, "gbps["):
			band = tol.GBpsFrac
		case strings.HasPrefix(m.Name, "ns["), strings.HasPrefix(m.Name, "idle.ns["):
			band = tol.NsFrac
		case strings.HasPrefix(m.Name, "knee.gbps["):
			band = tol.KneeFrac
		case strings.HasPrefix(m.Name, "rung.gbps["):
			band = tol.RungFrac
		}
		if band <= 0 && !strings.HasPrefix(m.Name, "knee.rate[") {
			t.Fatalf("%s judged although its band %v is not positive", m.Name, band)
		}
	}
	if (rep.Verdict == VerdictFail) != fail {
		t.Fatalf("verdict %q but a positive margin is %v: %+v", rep.Verdict, fail, rep.Metrics)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not encode: %v (%+v)", err, rep)
	}
}
