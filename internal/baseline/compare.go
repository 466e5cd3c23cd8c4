package baseline

import (
	"fmt"
	"math"
	"time"
)

// Verdicts, ordered by severity.
const (
	VerdictPass = "pass"
	VerdictWarn = "warn"
	VerdictFail = "fail"
)

// severity orders verdicts so the report verdict is the worst metric.
func severity(v string) int {
	switch v {
	case VerdictFail:
		return 2
	case VerdictWarn:
		return 1
	default:
		return 0
	}
}

// WorseVerdict returns the more severe of two verdicts.
func WorseVerdict(a, b string) string {
	if severity(b) > severity(a) {
		return b
	}
	return a
}

// Metric is one compared quantity: reference vs measured, the relative
// delta, the tolerance band it was judged against, and the margin by
// which it cleared (negative) or violated (positive) that band.
type Metric struct {
	// Name identifies the quantity: "gbps[copy]", "ns[triad]",
	// "knee.gbps[contiguous/r1]", "knee.rate[strided/r0.5]",
	// "idle.ns[contiguous/r1]", "rung.gbps[contiguous/r1@0.5]".
	Name      string  `json:"name"`
	Reference float64 `json:"reference"`
	Measured  float64 `json:"measured"`
	// Delta is (measured-reference)/reference; negative means slower
	// or lower-bandwidth than the reference.
	Delta float64 `json:"delta"`
	// Band is the two-sided relative tolerance this metric was judged
	// against.
	Band float64 `json:"band"`
	// Margin is |Delta|-Band: how far past the band (positive, a
	// violation) or inside it (negative, headroom) the measurement
	// landed. Exactly 0 — measured exactly at the band edge — passes.
	Margin  float64 `json:"margin"`
	Verdict string  `json:"verdict"`
	// Missing marks a reference metric the re-measurement did not
	// produce at all (fail unless the comparison is partial).
	Missing bool `json:"missing,omitempty"`
}

// Report is the structured verdict of one check: the overall verdict,
// every compared metric, and human-readable violation lines naming
// metric and margin for each failure.
type Report struct {
	Baseline    string `json:"baseline"`
	Target      string `json:"target"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	// Verdict is the worst per-metric verdict: pass, warn or fail.
	Verdict string   `json:"verdict"`
	Metrics []Metric `json:"metrics"`
	// Violations names each failed metric with its margin — the lines
	// an operator reads first.
	Violations []string `json:"violations,omitempty"`
	// DriftRatio is max(|delta|/band) over all banded metrics: <= 1
	// means everything within tolerance, > 1 quantifies the worst
	// violation. Exported per baseline as a gauge.
	DriftRatio float64 `json:"drift_ratio"`
	// Partial marks a verdict computed from an incomplete
	// re-measurement (check canceled or deadlined mid-surface):
	// reference metrics without a measured counterpart are skipped
	// rather than failed.
	Partial bool      `json:"partial,omitempty"`
	Checked time.Time `json:"checked"`
}

// cmp accumulates metrics into a report.
type cmp struct {
	rep  *Report
	warn float64
}

// add judges one banded metric. A non-positive band disables the
// family: the metric is skipped entirely.
func (c *cmp) add(name string, ref, got, band float64) {
	if band <= 0 {
		return
	}
	delta := relDelta(ref, got)
	m := Metric{Name: name, Reference: ref, Measured: got, Delta: delta, Band: band}
	abs := math.Abs(delta)
	m.Margin = abs - band
	switch {
	case m.Margin > 0:
		m.Verdict = VerdictFail
	case c.warn > 0 && abs > c.warn*band:
		m.Verdict = VerdictWarn
	default:
		m.Verdict = VerdictPass
	}
	if ratio := abs / band; ratio > c.rep.DriftRatio {
		// A band far below the delta overflows the ratio; the largest
		// float says the same and JSON can carry it.
		c.rep.DriftRatio = min(ratio, math.MaxFloat64)
	}
	c.push(m)
}

// relDelta is (got-ref)/ref where that is finite. A zero reference with
// a nonzero measurement has no relative delta and reads as +1 (100%
// drift); a quotient that overflows — a finite reference so small, or a
// difference so large — reads as the largest float in its own
// direction, which fails every band Tolerance.Validate accepts. Either
// way the report carries no Inf, which JSON cannot encode.
func relDelta(ref, got float64) float64 {
	if ref == 0 {
		if got != 0 {
			return 1
		}
		return 0
	}
	d := (got - ref) / ref
	if math.IsInf(d, 0) {
		return math.Copysign(math.MaxFloat64, d)
	}
	return d
}

// addShift judges a warn-only identity metric (the knee rate): any
// difference is drift worth flagging, but a shifted knee alone — with
// knee bandwidth still in band — is a warning, never a failure.
func (c *cmp) addShift(name string, ref, got float64) {
	m := Metric{Name: name, Reference: ref, Measured: got, Delta: relDelta(ref, got)}
	if math.Abs(m.Delta) > 1e-9 {
		m.Verdict = VerdictWarn
	} else {
		m.Verdict = VerdictPass
	}
	c.push(m)
}

// addMissing records a reference metric absent from the
// re-measurement.
func (c *cmp) addMissing(name string, ref, band float64) {
	if band <= 0 {
		return
	}
	if c.rep.Partial {
		// An incomplete measurement legitimately lacks the tail of the
		// reference; skip rather than fail.
		return
	}
	c.push(Metric{
		Name: name, Reference: ref, Delta: -1, Band: band, Margin: 1,
		Verdict: VerdictFail, Missing: true,
	})
}

func (c *cmp) push(m Metric) {
	c.rep.Metrics = append(c.rep.Metrics, m)
	c.rep.Verdict = WorseVerdict(c.rep.Verdict, m.Verdict)
	if m.Verdict == VerdictFail {
		line := fmt.Sprintf("%s: measured %.4g vs reference %.4g (delta %+.2f%%, band ±%.2f%%, margin %.2f%%)",
			m.Name, m.Measured, m.Reference, m.Delta*100, m.Band*100, m.Margin*100)
		if m.Missing {
			line = fmt.Sprintf("%s: reference %.4g missing from re-measurement", m.Name, m.Reference)
		}
		c.rep.Violations = append(c.rep.Violations, line)
	}
}

// Compare verdicts a re-measurement against a baseline entry.
// measured is the digest of the fresh result (FromResult/FromSurface);
// tol is the resolved tolerance (an override or the entry's own);
// partial marks an incomplete measurement, whose missing metrics are
// skipped instead of failed and whose report is tagged Partial.
//
// Bands are two-sided and inclusive: |delta| == band passes, only
// |delta| strictly greater than the band fails.
func Compare(e Entry, measured Reference, tol Tolerance, partial bool) Report {
	rep := &Report{
		Baseline:    e.Name,
		Target:      e.Target,
		Kind:        e.Kind,
		Fingerprint: e.Fingerprint,
		Verdict:     VerdictPass,
		Partial:     partial,
		Checked:     time.Now().UTC(),
	}
	c := &cmp{rep: rep, warn: tol.WarnFrac}

	// Run metrics: kernels matched by op.
	got := make(map[string]KernelRef, len(measured.Kernels))
	for _, k := range measured.Kernels {
		got[k.Op] = k
	}
	for _, ref := range e.Reference.Kernels {
		k, ok := got[ref.Op]
		if !ok {
			c.addMissing("gbps["+ref.Op+"]", ref.GBps, tol.GBpsFrac)
			c.addMissing("ns["+ref.Op+"]", ref.NsPerIter, tol.NsFrac)
			continue
		}
		c.add("gbps["+ref.Op+"]", ref.GBps, k.GBps, tol.GBpsFrac)
		c.add("ns["+ref.Op+"]", ref.NsPerIter, k.NsPerIter, tol.NsFrac)
	}

	// Surface metrics: curves matched by (pattern, read fraction),
	// rungs by ladder rate.
	for _, refCurve := range e.Reference.Curves {
		cname := curveLabel(refCurve.Pattern, refCurve.ReadFrac)
		mc, ok := findCurve(measured.Curves, refCurve)
		if !ok {
			c.addMissing("knee.gbps["+cname+"]", refCurve.KneeGBps, tol.KneeFrac)
			continue
		}
		// A knee detected on a rung-truncated ladder is an artifact of
		// where the deadline landed, not a drift signal: judge the knee
		// only when every reference rung was re-measured.
		if !partial || len(mc.Rungs) >= len(refCurve.Rungs) {
			c.add("knee.gbps["+cname+"]", refCurve.KneeGBps, mc.KneeGBps, tol.KneeFrac)
			c.addShift("knee.rate["+cname+"]", refCurve.KneeRate, mc.KneeRate)
		}
		c.add("idle.ns["+cname+"]", refCurve.IdleLatencyNs, mc.IdleLatencyNs, tol.NsFrac)
		rungs := make(map[float64]RungRef, len(mc.Rungs))
		for _, r := range mc.Rungs {
			rungs[r.Rate] = r
		}
		for _, rr := range refCurve.Rungs {
			rname := fmt.Sprintf("rung.gbps[%s@%g]", cname, rr.Rate)
			mr, ok := rungs[rr.Rate]
			if !ok {
				c.addMissing(rname, rr.GBps, tol.RungFrac)
				continue
			}
			c.add(rname, rr.GBps, mr.GBps, tol.RungFrac)
		}
	}
	if len(e.Reference.Curves) > 0 && !partial {
		c.add("knee.gbps[min]", e.Reference.MinKneeGBps, measured.MinKneeGBps, tol.KneeFrac)
	}
	return *rep
}

func curveLabel(pattern string, readFrac float64) string {
	return fmt.Sprintf("%s/r%g", pattern, readFrac)
}

func findCurve(curves []CurveRef, want CurveRef) (CurveRef, bool) {
	for _, c := range curves {
		if c.Pattern == want.Pattern && c.ReadFrac == want.ReadFrac {
			return c, true
		}
	}
	return CurveRef{}, false
}
