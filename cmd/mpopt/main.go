// Command mpopt searches a design space for the configuration that
// maximizes sustained bandwidth on one simulated target, using the
// budgeted optimizer strategies of internal/dse/search instead of
// exhaustive enumeration — the terminal-side counterpart of the
// service's POST /v1/optimize.
//
// Examples:
//
//	mpopt -target aocl -op triad -strategy hillclimb -budget 20
//	mpopt -target cpu -strategy anneal -seed 7 -vec 1,2,4,8,16 -unrolls 1,2,4
//	mpopt -target sdaccel -strategy random -budget 16 -json | jq '.best.label'
//	mpopt -target aocl -strategy exhaustive -trace
//	mpopt -target gpu -objective knee -vec 1,4,16
//	mpopt -target aocl -strategy exhaustive -csv > ranking.csv
//	mpopt -server http://127.0.0.1:8774 -target cpu -strategy anneal -budget 32
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/dse/search"
	"mpstream/internal/kernel"
	"mpstream/internal/report"
)

func main() {
	var (
		target    = flag.String("target", "aocl", "target device: aocl|sdaccel|cpu|gpu")
		op        = flag.String("op", "triad", "kernel to optimize: copy|scale|add|triad")
		strategy  = flag.String("strategy", "hillclimb", "search strategy: "+strings.Join(search.Strategies(), "|"))
		budget    = flag.Int("budget", 0, "max unique simulations (0 = the full grid)")
		seed      = flag.Int64("seed", 0, "RNG seed for stochastic strategies")
		size      = flag.String("size", "4MB", "per-array size, e.g. 256KB, 4MB")
		ntimes    = flag.Int("ntimes", core.DefaultNTimes, "repetitions per evaluation")
		vecs      = flag.String("vec", "1,2,4,8,16", "vector-width axis (comma-separated; empty omits the axis)")
		loops     = flag.String("loops", "", "loop-mode axis, e.g. ndrange,flat,nested (empty omits)")
		unrolls   = flag.String("unrolls", "1,2,4", "unroll-factor axis (empty omits)")
		simds     = flag.String("simds", "", "num_simd_work_items axis (empty omits)")
		cus       = flag.String("cus", "", "num_compute_units axis (empty omits)")
		dtypes    = flag.String("types", "int,double", "data-type axis (empty omits)")
		objective = flag.String("objective", "", "ranking metric: gbps (default) or knee (surface-knee bandwidth)")
		server    = flag.String("server", "", "submit against a running mpserved (or fleet coordinator) at this base URL instead of searching locally")
		asJSON    = flag.Bool("json", false, "emit the full search result as JSON")
		asCSV     = flag.Bool("csv", false, "emit the ranked points as CSV")
		trace     = flag.Bool("trace", false, "print the evaluation trace")
		timeline  = flag.Bool("timeline", false, "after a -server search, fetch the job's span timeline and print it to stderr")
	)
	flag.Parse()

	// Ctrl-C cancels the search between evaluations; the partial result
	// (best point so far, ranking, trace) still renders, tagged with a
	// canceled note. Restoring the default handler on the first signal
	// makes a second Ctrl-C kill the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	if err := run(ctx, *target, *op, *strategy, *budget, *seed, *size, *ntimes,
		*vecs, *loops, *unrolls, *simds, *cus, *dtypes, *objective, *server, *asJSON, *asCSV, *trace, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, "mpopt:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, target, opName, strategy string, budget int, seed int64, size string, ntimes int,
	vecs, loops, unrolls, simds, cus, dtypes, objective, server string, asJSON, asCSV, trace, timeline bool) error {
	if asJSON && asCSV {
		return fmt.Errorf("-json and -csv are mutually exclusive")
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

	var res *search.Result
	if server != "" {
		// Remote mode: the server (a standalone mpserved or a fleet
		// coordinator farming evaluations out to its workers) runs the
		// search; Ctrl-C cancels the job server-side and renders the
		// partial result it hands back.
		opts := search.Options{Strategy: strategy, Budget: budget, Seed: seed, Objective: objective}
		view, err := submitRemote(ctx, server, target, base, space, op, opts)
		if err != nil {
			return err
		}
		if timeline {
			cluster.NewClient().PrintTrace(os.Stderr, strings.TrimRight(server, "/"), view.ID, "mpopt")
		}
		if view.Status == "failed" {
			return fmt.Errorf("server: %s", view.Error)
		}
		if view.Optimize == nil {
			return fmt.Errorf("server returned no optimize result (job %s %s)", view.ID, view.Status)
		}
		res = view.Optimize
	} else {
		dev, err := targets.ByID(target)
		if err != nil {
			return err
		}
		res, err = search.RunContext(ctx, dev, base, space, op, search.Options{
			Strategy:  strategy,
			Budget:    budget,
			Seed:      seed,
			Objective: objective,
		})
		if err != nil {
			return err
		}
	}
	if res.Stopped != "" {
		fmt.Fprintf(os.Stderr, "mpopt: %s — partial results after %d of %d evaluations\n",
			res.Stopped, res.Evaluations, res.Budget)
	}

	switch {
	case asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	case asCSV:
		return rankingTable(op, res).WriteCSV(os.Stdout)
	}
	return writeText(os.Stdout, target, op, res, trace)
}

// submitRemote posts the search as an async /v1/optimize job and waits
// on its event stream.
func submitRemote(ctx context.Context, server, target string, base core.Config, space dse.Space, op kernel.Op, opts search.Options) (cluster.JobView, error) {
	client := cluster.NewClient()
	req := cluster.OptimizeRequest{
		Target:    target,
		Base:      &base,
		Space:     space,
		Op:        &op,
		Strategy:  opts.Strategy,
		Budget:    opts.Budget,
		Seed:      opts.Seed,
		Objective: opts.Objective,
		Async:     true,
	}
	return client.SubmitAndWait(ctx, strings.TrimRight(server, "/"), "/v1/optimize", req, nil)
}

// rankingTable renders the ranked exploration, one row per feasible
// point in objective order.
func rankingTable(op kernel.Op, res *search.Result) *report.Table {
	tb := report.NewTable("rank", "label", "GB/s", "knee GB/s")
	for i, p := range res.Exploration.Ranked {
		tb.AddRowf(i+1, p.Label, p.GBps(op), p.KneeGBps)
	}
	return tb
}

// writeText renders the human-readable report: the summary line, the
// best point, the Pareto front, and optionally the trace.
func writeText(w *os.File, target string, op kernel.Op, res *search.Result, trace bool) error {
	fmt.Fprintf(w, "mpopt -- %s on %s, strategy=%s seed=%d\n", op, target, res.Strategy, res.Seed)
	fmt.Fprintf(w, "space=%d points, budget=%d, simulated=%d (revisits deduplicated: %d), infeasible=%d\n",
		res.SpaceSize, res.Budget, res.Evaluations, res.Revisits, res.Exploration.Infeasible)
	if res.Stopped != "" {
		fmt.Fprintf(w, "search %s — partial results\n", res.Stopped)
	}
	if res.Best == nil {
		fmt.Fprintln(w, "no feasible configuration found")
		return nil
	}
	fmt.Fprintf(w, "best: %s at %.3f GB/s\n\n", res.Best.Label, res.BestGBps)

	tb := report.NewTable("pareto point", "GB/s", "logic", "regs", "bram", "dsp")
	for _, p := range res.Pareto {
		tb.AddRowf(p.Label, p.GBps, p.Resources.Logic, p.Resources.Registers, p.Resources.BRAM, p.Resources.DSP)
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}

	if trace {
		fmt.Fprintln(w)
		tt := report.NewTable("step", "label", "GB/s", "feasible", "best")
		for _, t := range res.Trace {
			tt.AddRowf(t.Step, t.Label, t.GBps, fmt.Sprintf("%v", t.Feasible), fmt.Sprintf("%v", t.Best))
		}
		return tt.WriteText(w)
	}
	return nil
}
