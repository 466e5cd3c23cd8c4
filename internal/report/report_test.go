package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("target", "GB/s")
	tb.AddRow("aocl", "2.53")
	tb.AddRow("gpu", "203.9")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "target") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule missing: %q", lines[1])
	}
	// Columns align: "aocl" padded to width of "target".
	if !strings.HasPrefix(lines[2], "aocl    ") {
		t.Errorf("alignment wrong: %q", lines[2])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("x")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x") {
		t.Error("row lost")
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("name", "f", "i")
	tb.AddRowf("x", 2.5, 42)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"2.5", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		2.5:     "2.5",
		2.0:     "2",
		0.04:    "0.04",
		203.87:  "203.87",
		1e9:     "1e+09",
		0.00001: "1e-05",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("1", "2")
	var sb strings.Builder
	if err := tb.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "|---|---|") {
		t.Errorf("markdown malformed:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", `q"u`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Errorf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"q""u"`) {
		t.Errorf("quote cell not escaped: %s", out)
	}
}

func TestChartBasics(t *testing.T) {
	c := Chart{Title: "test", LogX: true, LogY: true, Width: 40, Height: 10,
		XLabel: "size", YLabel: "GB/s"}
	c.Add(Series{Name: "gpu", X: []float64{1024, 4096, 16384}, Y: []float64{0.14, 0.95, 3.71}})
	c.Add(Series{Name: "cpu", X: []float64{1024, 4096, 16384}, Y: []float64{0.05, 0.19, 0.72}})
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"test", "legend:", "a=gpu", "s=cpu", "[x: size, y: GB/s]"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Data markers must appear.
	if !strings.Contains(out, "a") || !strings.Contains(out, "s") {
		t.Error("markers missing")
	}
}

func TestChartEmpty(t *testing.T) {
	var c Chart
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty chart must say so")
	}
}

func TestChartSkipsNonPositiveOnLogAxes(t *testing.T) {
	c := Chart{LogY: true}
	c.Add(Series{Name: "z", X: []float64{1, 2}, Y: []float64{0, 5}})
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") || strings.Contains(sb.String(), "Inf") {
		t.Errorf("log chart leaked non-finite values:\n%s", sb.String())
	}
}

func TestChartTruncatesMismatchedSeries(t *testing.T) {
	var c Chart
	c.Add(Series{Name: "m", X: []float64{1, 2, 3}, Y: []float64{1, 2}})
	if len(c.series[0].X) != 2 {
		t.Error("series not truncated to shorter length")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		1024:    "1KB",
		4 << 20: "4MB",
		1 << 30: "1GB",
		1000:    "1000B",
		3 << 19: "1536KB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"4MB":   4 << 20,
		"64K":   64 << 10,
		"1GB":   1 << 30,
		"1024":  1024,
		"512B":  512,
		"0.5MB": 512 << 10,
		" 2kb ": 2048,
		"4MiB":  4 << 20,
		"64KiB": 64 << 10,
		"1GiB":  1 << 30,
		"4 MB":  4 << 20,
	}
	for in, want := range good {
		got, err := ParseBytes(in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "-4MB", "0", "0.5B", "4x", "4MBB", "4 MB x",
		"1e30G", "9.3e18", "NaN", "Inf", "+InfMB", "-Inf"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

// FuzzParseBytes: an accepted size is positive and survives a round trip
// through HumanBytes.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"4MB", "64KiB", "1GiB", "0.5MB", "1e30G", "4x", "NaN", "9007199254740993"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseBytes(s)
		if err != nil {
			return
		}
		if v <= 0 {
			t.Fatalf("ParseBytes(%q) = %d, want positive", s, v)
		}
		if back, err := ParseBytes(HumanBytes(v)); err != nil || back != v {
			t.Fatalf("ParseBytes(HumanBytes(%d)) = %d, %v", v, back, err)
		}
	})
}
