// Command mpsweep regenerates the paper's figures and tables (and this
// reproduction's ablation experiments) as text tables, ASCII charts,
// paper-deviation summaries, or machine-readable JSON.
//
// Ctrl-C cancels the run gracefully: whatever points and experiments
// were collected before the interrupt are still rendered, annotated
// with a "canceled — partial results" note.
//
// Examples:
//
//	mpsweep -exp fig1a
//	mpsweep -exp fig4b
//	mpsweep -all
//	mpsweep -all -markdown > results.md
//	mpsweep -exp fig2 -json | jq '.series[].gbps'
//	mpsweep -exp targets -csv > targets.csv
//
// With -server, mpsweep instead submits a grid sweep against a running
// mpserved — on a fleet coordinator the grid is sharded across the
// registered workers and the merged ranking comes back byte-identical
// to a single-node sweep:
//
//	mpsweep -server http://127.0.0.1:8774 -target cpu -op triad -vec 1,2,4,8 -types int,double
//
// Baseline drift monitoring (requires -server): -record-baseline runs
// the base config and stores the result as a named reference;
// -check re-measures a stored baseline and exits nonzero when the
// fresh measurement drifts out of tolerance:
//
//	mpsweep -server http://127.0.0.1:8774 -target cpu -record-baseline cpu-nightly
//	mpsweep -server http://127.0.0.1:8774 -check cpu-nightly
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/dse"
	"mpstream/internal/experiments"
	"mpstream/internal/kernel"
	"mpstream/internal/report"
	"mpstream/internal/runstate"
)

func main() {
	var (
		exp      = flag.String("exp", "", expUsage())
		all      = flag.Bool("all", false, "run every experiment")
		markdown = flag.Bool("markdown", false, "emit Markdown instead of text")
		asJSON   = flag.Bool("json", false, "emit JSON instead of text (-all yields a JSON array)")
		asCSV    = flag.Bool("csv", false, "emit each experiment's table as CSV")

		server  = flag.String("server", "", "submit a grid sweep against a running mpserved (or fleet coordinator) at this base URL")
		target  = flag.String("target", "cpu", "sweep target device (with -server): aocl|sdaccel|cpu|gpu")
		op      = flag.String("op", "triad", "sweep kernel (with -server): copy|scale|add|triad")
		size    = flag.String("size", "4MB", "per-array size for the sweep base (with -server)")
		ntimes  = flag.Int("ntimes", core.DefaultNTimes, "repetitions per point (with -server)")
		vecs    = flag.String("vec", "1,2,4,8,16", "vector-width axis (with -server; empty omits)")
		loops   = flag.String("loops", "", "loop-mode axis (with -server; empty omits)")
		unrolls = flag.String("unrolls", "", "unroll-factor axis (with -server; empty omits)")
		simds   = flag.String("simds", "", "num_simd_work_items axis (with -server; empty omits)")
		cus     = flag.String("cus", "", "num_compute_units axis (with -server; empty omits)")
		dtypes  = flag.String("types", "int,double", "data-type axis (with -server; empty omits)")
		trace   = flag.Bool("trace", false, "after the sweep, fetch the job's span timeline and print it to stderr (with -server)")

		check    = flag.String("check", "", "re-measure the named baseline on the server and verdict the drift (requires -server); exits nonzero on a fail verdict")
		recordBL = flag.String("record-baseline", "", "run the base config (-target/-size/-ntimes) on the server and store the result under this baseline name (requires -server)")
	)
	flag.Parse()

	// Ctrl-C cancels the run between measurement units; partial results
	// still render below. Restoring the default handler as soon as the
	// first signal lands makes a second Ctrl-C kill the process outright
	// — NotifyContext alone would keep swallowing signals until stop().
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	var err error
	switch {
	case *check != "" && *server == "":
		err = fmt.Errorf("-check requires -server")
	case *check != "":
		err = cluster.NewClient().Check(ctx, os.Stdout, *server, *check, *asJSON)
	case *recordBL != "":
		err = runRecordBaseline(ctx, os.Stdout, *server, *recordBL, *target, *size, *ntimes)
	case *server != "":
		err = runServer(ctx, os.Stdout, *server, *target, *op, *size, *ntimes,
			*vecs, *loops, *unrolls, *simds, *cus, *dtypes, *markdown, *asJSON, *asCSV, *trace)
	default:
		err = run(ctx, *exp, *all, *markdown, *asJSON, *asCSV)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsweep:", err)
		os.Exit(1)
	}
	if st := runstate.FromContext(ctx); st != "" {
		fmt.Fprintf(os.Stderr, "mpsweep: %s — partial results rendered\n", st)
	}
}

// runServer submits a grid sweep to a server (or fleet) and renders
// the ranked exploration it returns. Ctrl-C cancels the job
// server-side; the partial ranking still renders.
func runServer(ctx context.Context, w io.Writer, server, target, opName, size string, ntimes int,
	vecs, loops, unrolls, simds, cus, dtypes string, markdown, asJSON, asCSV, trace bool) error {
	exclusive := 0
	for _, f := range []bool{markdown, asJSON, asCSV} {
		if f {
			exclusive++
		}
	}
	if exclusive > 1 {
		return fmt.Errorf("-markdown, -json and -csv are mutually exclusive")
	}
	op, err := kernel.ParseOp(opName)
	if err != nil {
		return err
	}
	base := core.DefaultConfig()
	base.NTimes = ntimes
	if base.ArrayBytes, err = report.ParseBytes(size); err != nil {
		return err
	}
	space, err := dse.ParseSpace(vecs, loops, unrolls, simds, cus, dtypes)
	if err != nil {
		return err
	}
	client := cluster.NewClient()
	req := cluster.SweepRequest{Target: target, Base: &base, Space: space, Op: &op, Async: true}
	view, err := client.SubmitAndWait(ctx, strings.TrimRight(server, "/"), "/v1/sweep", req, nil)
	if err != nil {
		return err
	}
	if trace {
		client.PrintTrace(os.Stderr, strings.TrimRight(server, "/"), view.ID, "mpsweep")
	}
	if view.Status == "failed" {
		return fmt.Errorf("server: %s", view.Error)
	}
	if view.Sweep == nil {
		return fmt.Errorf("server returned no sweep result (job %s %s)", view.ID, view.Status)
	}
	ex := view.Sweep
	if view.StopReason != "" {
		fmt.Fprintf(os.Stderr, "mpsweep: %s — partial ranking (%d points)\n", view.StopReason, len(ex.Ranked))
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(ex)
	}
	tb := report.NewTable("rank", "label", "GB/s")
	for i, p := range ex.Ranked {
		tb.AddRowf(i+1, p.Label, p.GBps(op))
	}
	switch {
	case asCSV:
		return tb.WriteCSV(w)
	case markdown:
		if _, err := fmt.Fprintf(w, "### Sweep of `%s` on `%s` (%d points, %d infeasible, %d cached)\n\n",
			op, target, space.Size(), ex.Infeasible, view.CachedPoints); err != nil {
			return err
		}
		return tb.WriteMarkdown(w)
	}
	fmt.Fprintf(w, "mpsweep -- %s on %s via %s: %d points, %d infeasible, %d cached\n",
		op, target, server, space.Size(), ex.Infeasible, view.CachedPoints)
	if best, ok := ex.Best(); ok {
		fmt.Fprintf(w, "best: %s at %.3f GB/s\n\n", best.Label, best.GBps(op))
	}
	return tb.WriteText(w)
}

// runRecordBaseline measures the base configuration on the server (a
// plain run job: all four kernels plus the pointer chase) and stores
// the result as a named baseline for later -check runs.
func runRecordBaseline(ctx context.Context, w io.Writer, server, name, target, size string, ntimes int) error {
	if server == "" {
		return fmt.Errorf("-record-baseline requires -server")
	}
	base := core.DefaultConfig()
	base.NTimes = ntimes
	var err error
	if base.ArrayBytes, err = report.ParseBytes(size); err != nil {
		return err
	}
	e, err := cluster.NewClient().MeasureBaseline(ctx, server, "/v1/run",
		cluster.RunRequest{Target: target, Config: &base}, name, target)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mpsweep: baseline %q recorded (%s on %s, fingerprint %s)\n",
		e.Name, e.Kind, e.Target, e.Fingerprint)
	return nil
}

func run(ctx context.Context, exp string, all, markdown, asJSON, asCSV bool) error {
	if !all && exp == "" {
		return fmt.Errorf("pass -exp <id> or -all (ids: %s)", ids())
	}
	exclusive := 0
	for _, f := range []bool{markdown, asJSON, asCSV} {
		if f {
			exclusive++
		}
	}
	if exclusive > 1 {
		return fmt.Errorf("-markdown, -json and -csv are mutually exclusive")
	}
	emit := func(e *experiments.Experiment) error {
		switch {
		case markdown:
			return e.WriteMarkdown(os.Stdout)
		case asCSV:
			return e.WriteCSV(os.Stdout)
		}
		return e.WriteText(os.Stdout)
	}
	emitJSON := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	if all {
		var collected []*experiments.Experiment
		for _, ent := range experiments.Registry() {
			if ctx.Err() != nil {
				// Canceled between experiments: render what we have.
				break
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", ent.ID)
			e, err := ent.Run(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", ent.ID, err)
			}
			if asJSON {
				collected = append(collected, e)
				continue
			}
			if err := emit(e); err != nil {
				return err
			}
		}
		if asJSON {
			return emitJSON(collected)
		}
		return nil
	}
	runExp, err := experiments.ByID(exp)
	if err != nil {
		return err
	}
	e, err := runExp(ctx)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(e)
	}
	return emit(e)
}

// ids lists the registered experiment ids in presentation order.
func ids() string {
	var s []string
	for _, ent := range experiments.Registry() {
		s = append(s, ent.ID)
	}
	return strings.Join(s, "|")
}

// expUsage is the -exp flag's usage line.
func expUsage() string { return "experiment id (" + ids() + ")" }
