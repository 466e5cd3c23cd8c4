// Package report renders benchmark results as aligned text tables, CSV,
// Markdown tables and log-scale ASCII charts — the output layer of the
// sweep driver and of EXPERIMENTS.md.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: strings pass through,
// float64 renders with %.4g, ints with %d.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, FormatFloat(v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// tableJSON is the wire form of a Table, used by the CLIs' -json output.
type tableJSON struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table as {"headers": [...], "rows": [[...]]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	tj := tableJSON{Headers: t.headers, Rows: t.rows}
	if tj.Headers == nil {
		tj.Headers = []string{}
	}
	if tj.Rows == nil {
		tj.Rows = [][]string{}
	}
	return json.Marshal(tj)
}

// UnmarshalJSON decodes the MarshalJSON form.
func (t *Table) UnmarshalJSON(b []byte) error {
	var tj tableJSON
	if err := json.Unmarshal(b, &tj); err != nil {
		return err
	}
	t.headers, t.rows = tj.Headers, tj.Rows
	return nil
}

// FormatFloat renders a float compactly (%.4g with a fixed small form).
func FormatFloat(v float64) string {
	if v == 0 {
		return "0"
	}
	if math.Abs(v) >= 0.01 && math.Abs(v) < 1e6 {
		s := fmt.Sprintf("%.3f", v)
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
		return s
	}
	return fmt.Sprintf("%.3g", v)
}

func (t *Table) widths() []int {
	w := make([]int, len(t.headers))
	for i, h := range t.headers {
		w[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteText renders the table with space-aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := t.widths()
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the table as a GitHub-flavoured Markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.headers, " | ")); err != nil {
		return err
	}
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(rule, "|")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (simple quoting: cells containing
// commas or quotes are quoted).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// Series is one named line of an xy chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart renders multiple series as an ASCII scatter/line plot, optionally
// with logarithmic axes — the Figure 1/2 reproduction format.
type Chart struct {
	Title         string
	XLabel        string
	YLabel        string
	LogX, LogY    bool
	Width, Height int
	series        []Series
}

// Add appends a series. X and Y must be equal length; extra points are
// truncated to the shorter.
func (c *Chart) Add(s Series) {
	n := len(s.X)
	if len(s.Y) < n {
		n = len(s.Y)
	}
	s.X, s.Y = s.X[:n], s.Y[:n]
	c.series = append(c.series, s)
}

var markers = []byte{'a', 's', 'c', 'g', 'x', 'o', '+', '*'}

// Write renders the chart.
func (c *Chart) Write(w io.Writer) error {
	width, height := c.Width, c.Height
	if width == 0 {
		width = 72
	}
	if height == 0 {
		height = 20
	}
	tx := func(v float64) float64 {
		if c.LogX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if c.LogY {
			return math.Log10(v)
		}
		return v
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range c.series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if (c.LogX && x <= 0) || (c.LogY && y <= 0) {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, tx(x)), math.Max(maxX, tx(x))
			minY, maxY = math.Min(minY, ty(y)), math.Max(maxY, ty(y))
		}
	}
	if !any {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if (c.LogX && x <= 0) || (c.LogY && y <= 0) {
				continue
			}
			col := int((tx(x) - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((ty(y)-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = mark
		}
	}

	if c.Title != "" {
		if _, err := fmt.Fprintln(w, c.Title); err != nil {
			return err
		}
	}
	topLabel := FormatFloat(untransform(maxY, c.LogY))
	botLabel := FormatFloat(untransform(minY, c.LogY))
	labelW := len(topLabel)
	if len(botLabel) > labelW {
		labelW = len(botLabel)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelW)
		switch i {
		case 0:
			label = pad(topLabel, labelW)
		case height - 1:
			label = pad(botLabel, labelW)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %s%s%s\n",
		strings.Repeat(" ", labelW),
		FormatFloat(untransform(minX, c.LogX)),
		strings.Repeat(" ", max(1, width-len(FormatFloat(untransform(minX, c.LogX)))-len(FormatFloat(untransform(maxX, c.LogX))))),
		FormatFloat(untransform(maxX, c.LogX))); err != nil {
		return err
	}
	// Legend.
	names := make([]string, 0, len(c.series))
	for si, s := range c.series {
		names = append(names, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "legend: %s", strings.Join(names, "  ")); err != nil {
		return err
	}
	if c.XLabel != "" || c.YLabel != "" {
		if _, err := fmt.Fprintf(w, "   [x: %s, y: %s]", c.XLabel, c.YLabel); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func untransform(v float64, log bool) float64 {
	if log {
		return math.Pow(10, v)
	}
	return v
}

// HumanBytes renders a byte count the way the figures label sizes.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty fields; an empty or blank value yields nil.
func SplitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// byteUnits maps the size suffixes ParseBytes accepts to their binary
// multipliers, longest suffix first within each unit.
var byteUnits = []struct {
	suffix string
	mult   float64
}{
	{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
	{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
	{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
	{"B", 1},
}

// ParseBytes parses a human size like "4MB", "64K", "1GiB" or a plain
// byte count. Units are binary (1K = 1KB = 1KiB = 1024); any other
// trailing text is an error.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := 1.0
	for _, u := range byteUnits {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSpace(strings.TrimSuffix(t, u.suffix)), u.mult
			break
		}
	}
	n, err := strconv.ParseFloat(t, 64)
	if err != nil || !(n > 0) {
		return 0, fmt.Errorf("report: cannot parse size %q", s)
	}
	// Range-check before converting: an out-of-range float-to-int64
	// conversion is platform-dependent.
	v := n * mult
	if !(v >= 1 && v < 1<<63) {
		return 0, fmt.Errorf("report: size %q out of range", s)
	}
	return int64(v), nil
}
