package paperdata

import "testing"

func TestSizes(t *testing.T) {
	f1 := Fig1Sizes()
	if len(f1) != 9 || f1[0] != 1024 || f1[8] != 64<<20 {
		t.Errorf("Fig1Sizes = %v", f1)
	}
	f2 := Fig2Sizes()
	if len(f2) != 11 || f2[10] != 1<<30 {
		t.Errorf("Fig2Sizes last = %v", f2[len(f2)-1])
	}
	for i := 1; i < len(f2); i++ {
		if f2[i] != 4*f2[i-1] {
			t.Errorf("sizes must step x4: %v", f2)
		}
	}
}

func TestSeriesLengths(t *testing.T) {
	for _, id := range targetIDs {
		if len(Fig1a[id]) != 9 {
			t.Errorf("Fig1a[%s] has %d points, want 9", id, len(Fig1a[id]))
		}
		if len(Fig1b[id]) != len(VecWidths()) {
			t.Errorf("Fig1b[%s] has %d points", id, len(Fig1b[id]))
		}
		if n := len(Fig2Contig[id]); n != 9 && n != 11 {
			t.Errorf("Fig2Contig[%s] has %d points", id, n)
		}
		if n := len(Fig2Strided[id]); n != 9 && n != 11 {
			t.Errorf("Fig2Strided[%s] has %d points", id, n)
		}
		if _, ok := Fig3Order[id]; !ok {
			t.Errorf("Fig3Order missing %s", id)
		}
		if _, ok := PeakGBps[id]; !ok {
			t.Errorf("PeakGBps missing %s", id)
		}
	}
}

func TestSustainedBelowPeak(t *testing.T) {
	for _, id := range targetIDs {
		peak := PeakGBps[id]
		for i, v := range Fig1a[id] {
			if v > peak {
				t.Errorf("%s Fig1a[%d] = %v exceeds peak %v", id, i, v, peak)
			}
		}
		for i, v := range Fig1b[id] {
			// The paper's own Fig 1(b) CPU values slightly exceed the
			// nominal 34 GB/s at one point; allow 10%.
			if v > 1.1*peak {
				t.Errorf("%s Fig1b[%d] = %v exceeds peak %v", id, i, v, peak)
			}
		}
	}
}

func TestFig4bSeries(t *testing.T) {
	for _, route := range []string{"vector", "simd", "cu"} {
		if len(Fig4b[route]) != len(Fig4bN()) {
			t.Errorf("Fig4b[%s] has %d points", route, len(Fig4b[route]))
		}
	}
	// The paper's observation: vectorization ends highest; SIMD and CU
	// fall away from their interior peaks at N=16.
	v, s, c := Fig4b["vector"], Fig4b["simd"], Fig4b["cu"]
	if !(v[4] > s[4] && v[4] > c[4]) {
		t.Error("vectorization must win at N=16")
	}
	if !(s[4] < s[3] && c[4] < c[2]) {
		t.Error("SIMD/CU must degrade at N=16")
	}
}

func TestStridedBelowContig(t *testing.T) {
	// At the largest common size, strided is far below contiguous for
	// every target.
	for _, id := range targetIDs {
		contig := Fig2Contig[id]
		strided := Fig2Strided[id]
		n := len(strided)
		if contig[n-1] <= strided[n-1] {
			t.Errorf("%s: strided (%v) not below contiguous (%v) at the tail",
				id, strided[n-1], contig[n-1])
		}
	}
}

// targetIDs lists the four targets in figure order.
var targetIDs = []string{"aocl", "sdaccel", "cpu", "gpu"}
