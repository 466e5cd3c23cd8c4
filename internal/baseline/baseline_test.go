package baseline

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/kernel"
)

func runEntry(t *testing.T, tol Tolerance) Entry {
	t.Helper()
	e := Entry{
		Name:        "cpu-nightly",
		Target:      "cpu",
		Kind:        KindRun,
		Fingerprint: "fp-run-1",
		Config:      &core.Config{},
		Tolerance:   tol.WithDefaults(),
		Reference: Reference{
			Kernels: []KernelRef{
				{Op: "copy", GBps: 100, NsPerIter: 2000},
				{Op: "triad", GBps: 80, NsPerIter: 2500},
			},
			BestGBps: 100,
		},
		Created: time.Now().UTC(),
		Updated: time.Now().UTC(),
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("entry: %v", err)
	}
	return e
}

func measuredRun(copyGBps float64) Reference {
	return Reference{
		Kernels: []KernelRef{
			{Op: "copy", GBps: copyGBps, NsPerIter: 2000},
			{Op: "triad", GBps: 80, NsPerIter: 2500},
		},
		BestGBps: copyGBps,
	}
}

func metricByName(t *testing.T, rep Report, name string) Metric {
	t.Helper()
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("metric %q not in report (have %d metrics)", name, len(rep.Metrics))
	return Metric{}
}

func TestCompareExactlyAtBandPasses(t *testing.T) {
	e := runEntry(t, Tolerance{})
	// 5% band; measured exactly at reference*(1-band). The band is
	// inclusive: landing exactly on the edge is a pass, only strictly
	// beyond it fails.
	rep := Compare(e, measuredRun(95), e.Tolerance, false)
	if rep.Verdict != VerdictPass {
		t.Fatalf("verdict = %q, want pass: %v", rep.Verdict, rep.Violations)
	}
	m := metricByName(t, rep, "gbps[copy]")
	if m.Margin > 0 {
		t.Fatalf("margin = %v, want <= 0 at the band edge", m.Margin)
	}
	if rep.DriftRatio > 1 {
		t.Fatalf("drift ratio = %v, want <= 1 at the band edge", rep.DriftRatio)
	}

	// One epsilon beyond the edge must fail, naming metric and margin.
	rep = Compare(e, measuredRun(94.9), e.Tolerance, false)
	if rep.Verdict != VerdictFail {
		t.Fatalf("verdict = %q, want fail", rep.Verdict)
	}
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "gbps[copy]") ||
		!strings.Contains(rep.Violations[0], "margin") {
		t.Fatalf("violations = %v, want one line naming gbps[copy] and its margin", rep.Violations)
	}
	if rep.DriftRatio <= 1 {
		t.Fatalf("drift ratio = %v, want > 1 on violation", rep.DriftRatio)
	}
	// The upper side of the band is enforced too: a too-good result is
	// still drift (the reference no longer describes the machine).
	rep = Compare(e, measuredRun(106), e.Tolerance, false)
	if rep.Verdict != VerdictFail {
		t.Fatalf("verdict on +6%% = %q, want fail (two-sided band)", rep.Verdict)
	}
}

// TestCompareTinyReferenceStaysFinite pins the overflow case: a finite
// reference so small that (measured-reference)/reference is ±Inf must
// fail at every band Tolerance.Validate accepts, with a finite delta and
// a report JSON can encode.
func TestCompareTinyReferenceStaysFinite(t *testing.T) {
	e := runEntry(t, Tolerance{})
	e.Reference.Kernels[0].GBps = 5e-324
	for _, band := range []float64{0.05, 1, 10} {
		tol := Tolerance{GBpsFrac: band, NsFrac: -1}
		if err := tol.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, got := range []float64{10, -10} {
			rep := Compare(e, measuredRun(got), tol, false)
			m := metricByName(t, rep, "gbps[copy]")
			if math.IsInf(m.Delta, 0) || math.IsNaN(m.Delta) || math.Signbit(m.Delta) != (got < 0) {
				t.Errorf("band %v, measured %v: delta = %v, want finite with the drift's sign", band, got, m.Delta)
			}
			if rep.Verdict != VerdictFail || m.Verdict != VerdictFail {
				t.Errorf("band %v, measured %v: verdict %q, metric %q, want fail", band, got, rep.Verdict, m.Verdict)
			}
			if _, err := json.Marshal(rep); err != nil {
				t.Errorf("band %v, measured %v: report does not encode: %v", band, got, err)
			}
		}
	}
	// A band so narrow that |delta|/band overflows keeps a finite drift
	// ratio too.
	rep := Compare(e, measuredRun(95), Tolerance{GBpsFrac: 5e-324, NsFrac: -1}, false)
	if math.IsInf(rep.DriftRatio, 0) {
		t.Errorf("drift ratio = %v, want finite", rep.DriftRatio)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("narrow band: report does not encode: %v", err)
	}
}

func TestCompareWarnZone(t *testing.T) {
	e := runEntry(t, Tolerance{WarnFrac: 0.5})
	// 5% band, warn above 50% of it: a 4% dip warns, a 2% dip passes.
	rep := Compare(e, measuredRun(96), e.Tolerance, false)
	if rep.Verdict != VerdictWarn {
		t.Fatalf("verdict at -4%% = %q, want warn", rep.Verdict)
	}
	rep = Compare(e, measuredRun(98), e.Tolerance, false)
	if rep.Verdict != VerdictPass {
		t.Fatalf("verdict at -2%% = %q, want pass", rep.Verdict)
	}
}

func TestCompareMissingKernel(t *testing.T) {
	e := runEntry(t, Tolerance{})
	measured := Reference{Kernels: []KernelRef{{Op: "copy", GBps: 100, NsPerIter: 2000}}}
	rep := Compare(e, measured, e.Tolerance, false)
	if rep.Verdict != VerdictFail {
		t.Fatalf("verdict = %q, want fail when a reference kernel is unmeasured", rep.Verdict)
	}
	if !metricByName(t, rep, "gbps[triad]").Missing {
		t.Fatal("gbps[triad] not marked missing")
	}
	// The same gap in a partial measurement is skipped, not failed.
	rep = Compare(e, measured, e.Tolerance, true)
	if rep.Verdict != VerdictPass || !rep.Partial {
		t.Fatalf("partial verdict = %q (partial=%v), want pass/true", rep.Verdict, rep.Partial)
	}
}

func surfEntry(t *testing.T) Entry {
	t.Helper()
	e := Entry{
		Name:        "gpu-surface",
		Target:      "gpu",
		Kind:        KindSurface,
		Fingerprint: "fp-surf-1",
		Tolerance:   Tolerance{}.WithDefaults(),
		Reference: Reference{
			Curves: []CurveRef{{
				Pattern: "contiguous", ReadFrac: 1,
				KneeRate: 0.5, KneeGBps: 40, IdleLatencyNs: 90,
				Rungs: []RungRef{
					{Rate: 0.25, GBps: 20, LatencyNs: 100},
					{Rate: 0.5, GBps: 40, LatencyNs: 120},
					{Rate: 1.0, GBps: 42, LatencyNs: 400},
				},
			}},
			MinKneeGBps: 40,
		},
	}
	return e
}

func TestCompareKneeShiftWarns(t *testing.T) {
	e := surfEntry(t)
	measured := e.Reference
	// Same knee bandwidth, knee found one rung later: drift worth
	// flagging, but warn-only — bandwidth is still in band.
	measured.Curves = append([]CurveRef(nil), e.Reference.Curves...)
	measured.Curves[0].KneeRate = 1.0
	rep := Compare(e, measured, e.Tolerance, false)
	if rep.Verdict != VerdictWarn {
		t.Fatalf("verdict = %q, want warn on knee-rate shift alone: %+v", rep.Verdict, rep.Violations)
	}
	m := metricByName(t, rep, "knee.rate[contiguous/r1]")
	if m.Verdict != VerdictWarn {
		t.Fatalf("knee.rate verdict = %q, want warn", m.Verdict)
	}
}

func TestCompareRungDelta(t *testing.T) {
	e := surfEntry(t)
	measured := e.Reference
	measured.Curves = append([]CurveRef(nil), e.Reference.Curves...)
	measured.Curves[0].Rungs = append([]RungRef(nil), e.Reference.Curves[0].Rungs...)
	// 15% rung band: a 20% sag on one rung fails and names the rung.
	measured.Curves[0].Rungs[1].GBps = 32
	rep := Compare(e, measured, e.Tolerance, false)
	if rep.Verdict != VerdictFail {
		t.Fatalf("verdict = %q, want fail", rep.Verdict)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "rung.gbps[contiguous/r1@0.5]") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v do not name the sagging rung", rep.Violations)
	}
}

func TestComparePartialTruncatedLadderSkipsKnee(t *testing.T) {
	e := surfEntry(t)
	measured := e.Reference
	measured.Curves = append([]CurveRef(nil), e.Reference.Curves...)
	// A deadline mid-ladder: only the first rung measured, and the knee
	// detector ran over that truncated curve — its "knee" reflects where
	// the ladder stopped, not drift.
	measured.Curves[0].Rungs = measured.Curves[0].Rungs[:1]
	measured.Curves[0].KneeRate = 0.25
	measured.Curves[0].KneeGBps = 20
	rep := Compare(e, measured, e.Tolerance, true)
	if rep.Verdict != VerdictPass {
		t.Fatalf("partial truncated-ladder verdict = %q, want pass: %v", rep.Verdict, rep.Violations)
	}
	for _, m := range rep.Metrics {
		if strings.HasPrefix(m.Name, "knee.") {
			t.Fatalf("truncated curve judged %s; knees must be skipped on partial ladders", m.Name)
		}
	}
	// A complete (non-partial) comparison of the same measurement still
	// fails: there the truncated ladder is real missing data.
	if rep := Compare(e, measured, e.Tolerance, false); rep.Verdict != VerdictFail {
		t.Fatalf("full verdict = %q, want fail", rep.Verdict)
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	e := surfEntry(t)
	rep := Compare(e, e.Reference, e.Tolerance, false)
	if rep.Verdict != VerdictPass || rep.DriftRatio != 0 {
		t.Fatalf("identical re-measurement: verdict=%q drift=%v, want pass/0", rep.Verdict, rep.DriftRatio)
	}
}

func TestScaleInjectsDetectableDrift(t *testing.T) {
	e := surfEntry(t)
	rep := Compare(e, e.Reference.Scale(0.8), e.Tolerance, false)
	if rep.Verdict != VerdictFail {
		t.Fatalf("verdict after 0.8x scale = %q, want fail", rep.Verdict)
	}
	// Scale must not mutate the receiver.
	if e.Reference.Curves[0].KneeGBps != 40 {
		t.Fatalf("Scale mutated its receiver: knee %v", e.Reference.Curves[0].KneeGBps)
	}
}

func TestFromResultOpNames(t *testing.T) {
	res := &core.Result{Kernels: []core.KernelResult{
		{Op: kernel.Copy, GBps: 12, BestSeconds: 3e-6},
		{Op: kernel.Triad, GBps: 10, BestSeconds: 4e-6},
	}}
	ref := FromResult(res)
	if len(ref.Kernels) != 2 || ref.Kernels[0].Op != "copy" || ref.Kernels[1].Op != "triad" {
		t.Fatalf("ops = %+v, want copy/triad", ref.Kernels)
	}
	if ref.Kernels[0].NsPerIter != 3000 {
		t.Fatalf("ns/iter = %v, want 3000", ref.Kernels[0].NsPerIter)
	}
	if ref.BestGBps != 12 {
		t.Fatalf("best = %v, want 12", ref.BestGBps)
	}
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "cpu-nightly", "A.b_c-9", strings.Repeat("x", 64)} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", ".hidden", "-lead", "has space", "slash/y", strings.Repeat("x", 65)} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", bad)
		}
	}
}

func TestDirStorePersistence(t *testing.T) {
	dir := t.TempDir()
	st, warns, err := OpenDirStore(dir)
	if err != nil || len(warns) != 0 {
		t.Fatalf("open: %v (warns %v)", err, warns)
	}
	e := runEntry(t, Tolerance{})
	if err := st.Put(e); err != nil {
		t.Fatalf("put: %v", err)
	}

	// A fresh store over the same directory sees the entry — the
	// restart-survival property the sentinel depends on.
	st2, warns, err := OpenDirStore(dir)
	if err != nil || len(warns) != 0 {
		t.Fatalf("reopen: %v (warns %v)", err, warns)
	}
	got, ok, err := st2.Get(e.Name)
	if err != nil || !ok {
		t.Fatalf("get after reopen: ok=%v err=%v", ok, err)
	}
	if got.Fingerprint != e.Fingerprint || len(got.Reference.Kernels) != 2 {
		t.Fatalf("round-trip mangled entry: %+v", got)
	}
	if got.Tolerance.GBpsFrac != DefaultGBpsFrac {
		t.Fatalf("tolerance not persisted resolved: %+v", got.Tolerance)
	}

	// Re-recording the same name under a new fingerprint replaces the
	// old file; same fingerprint under a new name evicts the old name.
	e2 := e
	e2.Fingerprint = "fp-run-2"
	if err := st2.Put(e2); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fp-run-1.json")); !os.IsNotExist(err) {
		t.Fatalf("stale fingerprint file survived re-put: %v", err)
	}
	e3 := e2
	e3.Name = "cpu-nightly-v2"
	if err := st2.Put(e3); err != nil {
		t.Fatalf("rename-put: %v", err)
	}
	if _, ok, _ := st2.Get("cpu-nightly"); ok {
		t.Fatal("old name survived a same-fingerprint re-record")
	}
	list, err := st2.List()
	if err != nil || len(list) != 1 || list[0].Name != "cpu-nightly-v2" {
		t.Fatalf("list = %+v (err %v), want single cpu-nightly-v2", list, err)
	}

	// Delete removes the file.
	if ok, err := st2.Delete("cpu-nightly-v2"); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fp-run-2.json")); !os.IsNotExist(err) {
		t.Fatalf("entry file survived delete: %v", err)
	}
}

func TestDirStoreSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.Put(runEntry(t, Tolerance{})); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz-corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, warns, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(warns) != 1 {
		t.Fatalf("warns = %v, want exactly the corrupt file flagged", warns)
	}
	if list, _ := st2.List(); len(list) != 1 {
		t.Fatalf("list = %+v, want the one good entry", list)
	}
}

func TestMemStoreFingerprintUniqueness(t *testing.T) {
	st := NewMemStore()
	e := runEntry(t, Tolerance{})
	if err := st.Put(e); err != nil {
		t.Fatalf("put: %v", err)
	}
	e2 := e
	e2.Name = "other-name"
	if err := st.Put(e2); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	if _, ok, _ := st.Get(e.Name); ok {
		t.Fatal("two names share one fingerprint")
	}
	list, _ := st.List()
	if len(list) != 1 {
		t.Fatalf("list = %d entries, want 1", len(list))
	}
}
