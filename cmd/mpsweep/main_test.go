package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"mpstream/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run(context.Background(), "targets", false, false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "targets", false, true, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), "", false, false, false, false); err == nil {
		t.Error("missing -exp/-all must error")
	}
	if err := run(context.Background(), "bogus", false, false, false, false); err == nil {
		t.Error("unknown experiment must error")
	}
	if err := run(context.Background(), "targets", false, true, true, false); err == nil {
		t.Error("-markdown with -json must error")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func TestRunJSONSeries(t *testing.T) {
	out := captureStdout(t, func() error { return run(context.Background(), "dtype", false, false, true, false) })
	var e struct {
		ID     string `json:"id"`
		Series []struct {
			Name string    `json:"name"`
			GBps []float64 `json:"gbps"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &e); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if e.ID != "dtype" || len(e.Series) == 0 {
		t.Fatalf("experiment = %+v", e)
	}
	for _, s := range e.Series {
		if len(s.GBps) == 0 {
			t.Errorf("series %s has no data", s.Name)
		}
	}
}

func TestRunJSONTable(t *testing.T) {
	out := captureStdout(t, func() error { return run(context.Background(), "targets", false, false, true, false) })
	var e struct {
		Extra struct {
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"extra"`
	}
	if err := json.Unmarshal([]byte(out), &e); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(e.Extra.Headers) == 0 || len(e.Extra.Rows) != 4 {
		t.Errorf("table = %+v", e.Extra)
	}
}

func TestIDsListsAll(t *testing.T) {
	s := ids()
	for _, want := range []string{"fig1a", "fig4b", "hmc", "efficiency"} {
		if !strings.Contains(s, want) {
			t.Errorf("ids() missing %q: %s", want, s)
		}
	}
}

// TestExpUsageNamesEveryExperiment: the -exp usage lists exactly the
// registered experiments, so a new experiment cannot go undocumented.
func TestExpUsageNamesEveryExperiment(t *testing.T) {
	u := expUsage()
	inner := u[strings.Index(u, "(")+1 : strings.LastIndex(u, ")")]
	listed := strings.Split(inner, "|")
	reg := experiments.Registry()
	if len(listed) != len(reg) {
		t.Fatalf("-exp usage lists %d ids, registry has %d: %s", len(listed), len(reg), u)
	}
	for i, ent := range reg {
		if listed[i] != ent.ID {
			t.Errorf("-exp usage id %d = %q, want %q", i, listed[i], ent.ID)
		}
	}
}

// TestRunCSVRoundTrip: -csv output parses as CSV and reproduces the
// experiment's table cell for cell.
func TestRunCSVRoundTrip(t *testing.T) {
	out := captureStdout(t, func() error { return run(context.Background(), "targets", false, false, false, true) })
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v\n%s", err, out)
	}
	runExp, err := experiments.ByID("targets")
	if err != nil {
		t.Fatal(err)
	}
	e, err := runExp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := json.Marshal(e.Table())
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(tb, &want); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want.Rows)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(rows), len(want.Rows)+1)
	}
	for i, h := range want.Headers {
		if rows[0][i] != h {
			t.Errorf("CSV header %d = %q, want %q", i, rows[0][i], h)
		}
	}
	for r, wantRow := range want.Rows {
		for c, cell := range wantRow {
			if rows[r+1][c] != cell {
				t.Errorf("CSV cell [%d][%d] = %q, want %q", r, c, rows[r+1][c], cell)
			}
		}
	}
}

func TestRunCSVExclusive(t *testing.T) {
	if err := run(context.Background(), "targets", false, false, true, true); err == nil {
		t.Error("-csv with -json must error")
	}
	if err := run(context.Background(), "targets", false, true, false, true); err == nil {
		t.Error("-csv with -markdown must error")
	}
}
