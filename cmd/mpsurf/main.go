// Command mpsurf measures a device's bandwidth–latency surface: loaded
// latency across background access patterns, read/write ratios and an
// injection-rate ladder, with knee detection — the terminal-side
// counterpart of the service's POST /v1/surface.
//
// Examples:
//
//	mpsurf -target gpu
//	mpsurf -target cpu -patterns contiguous,strided:128 -ratios 1,0.5
//	mpsurf -target aocl -rates 0.25,0.5,0.75,1 -chart
//	mpsurf -target sdaccel -csv > surface.csv
//	mpsurf -target gpu -json | jq '.curves[].knee'
//
// Baseline drift monitoring (requires -server): -record-baseline
// measures the configured surface and stores it as a named reference;
// -check re-measures a stored baseline and exits nonzero when the
// surface drifts out of tolerance (knee bandwidth, per-rung deltas,
// knee shifts):
//
//	mpsurf -server http://127.0.0.1:8774 -target gpu -record-baseline gpu-surface
//	mpsurf -server http://127.0.0.1:8774 -check gpu-surface
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device/targets"
	"mpstream/internal/report"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

func main() {
	var (
		target     = flag.String("target", "gpu", "target device: aocl|sdaccel|cpu|gpu")
		patterns   = flag.String("patterns", "", "background patterns, e.g. contiguous,strided:16,colmajor (empty = default)")
		ratios     = flag.String("ratios", "", "read fractions, e.g. 1,0.67,0.5 (empty = default)")
		rates      = flag.String("rates", "", "injection ladder as fractions of peak, e.g. 0.1,0.5,1,1.2 (empty = default)")
		size       = flag.String("size", "", "per-stream footprint, e.g. 32MB (empty = default)")
		window     = flag.Int("window", 0, "transactions simulated per ladder point (0 = default)")
		probe      = flag.Int("probe", 0, "chase hops of the idle-latency measurement (0 = default)")
		kneeFactor = flag.Float64("knee-factor", 0, "acceptable-latency multiple of idle (0 = default)")
		server     = flag.String("server", "", "submit against a running mpserved (or fleet coordinator) at this base URL instead of measuring locally")
		markdown   = flag.Bool("markdown", false, "emit Markdown tables instead of text")
		asCSV      = flag.Bool("csv", false, "emit the ladder as CSV")
		asJSON     = flag.Bool("json", false, "emit the full surface as JSON")
		chart      = flag.Bool("chart", false, "append an ASCII latency chart per curve (text mode)")
		trace      = flag.Bool("trace", false, "after a -server run, fetch the job's span timeline and print it to stderr")

		check    = flag.String("check", "", "re-measure the named baseline on the server and verdict the drift (requires -server); exits nonzero on a fail verdict")
		recordBL = flag.String("record-baseline", "", "measure the configured surface on the server and store it under this baseline name (requires -server)")
	)
	flag.Parse()

	// Ctrl-C cancels the measurement between ladder rungs; the curves
	// collected so far still render, tagged with a canceled note.
	// Restoring the default handler on the first signal makes a second
	// Ctrl-C kill the process outright.
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
		err = runRecordBaseline(ctx, os.Stdout, *server, *recordBL, *target,
			*patterns, *ratios, *rates, *size, *window, *probe, *kneeFactor)
	default:
		err = run(ctx, os.Stdout, *target, *patterns, *ratios, *rates, *size,
			*window, *probe, *kneeFactor, *server, *markdown, *asCSV, *asJSON, *chart, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsurf:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, target, patterns, ratios, rates, size string,
	window, probe int, kneeFactor float64, server string, markdown, asCSV, asJSON, chart, trace bool) error {
	exclusive := 0
	for _, f := range []bool{markdown, asCSV, asJSON} {
		if f {
			exclusive++
		}
	}
	if exclusive > 1 {
		return fmt.Errorf("-markdown, -csv and -json are mutually exclusive")
	}
	if chart && exclusive > 0 {
		return fmt.Errorf("-chart only applies to the text output")
	}
	cfg, err := buildConfig(patterns, ratios, rates, size, window, probe, kneeFactor)
	if err != nil {
		return err
	}
	var s *surface.Surface
	if server != "" {
		// Remote mode: the server (or fleet, curve-sharded across its
		// workers) measures; Ctrl-C cancels the job server-side and the
		// partial surface it hands back still renders.
		client := cluster.NewClient()
		req := cluster.SurfaceRequest{Target: target, Config: &cfg, Async: true}
		view, err := client.SubmitAndWait(ctx, strings.TrimRight(server, "/"), "/v1/surface", req, nil)
		if err != nil {
			return err
		}
		if trace {
			client.PrintTrace(os.Stderr, strings.TrimRight(server, "/"), view.ID, "mpsurf")
		}
		if view.Status == "failed" {
			return fmt.Errorf("server: %s", view.Error)
		}
		if view.Surface == nil {
			return fmt.Errorf("server returned no surface (job %s %s)", view.ID, view.Status)
		}
		s = view.Surface
	} else {
		dev, err := targets.ByID(target)
		if err != nil {
			return err
		}
		if s, err = core.RunSurfaceContext(ctx, dev, cfg); err != nil {
			return err
		}
	}
	if s.Stopped != "" {
		fmt.Fprintf(os.Stderr, "mpsurf: %s — partial surface (%d curves)\n", s.Stopped, len(s.Curves))
	}
	switch {
	case asJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	case asCSV:
		return s.Table().WriteCSV(w)
	case markdown:
		if _, err := fmt.Fprintf(w, "### Bandwidth–latency surface of `%s`\n\n", s.Device.ID); err != nil {
			return err
		}
		if err := s.KneeTable().WriteMarkdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		return s.Table().WriteMarkdown(w)
	}
	fmt.Fprintf(w, "bandwidth–latency surface — %s (%s)\n\n", s.Device.ID, s.Device.Description)
	if err := s.KneeTable().WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := s.Table().WriteText(w); err != nil {
		return err
	}
	if chart {
		for _, c := range s.Curves {
			fmt.Fprintln(w)
			if err := c.Chart().Write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRecordBaseline measures the configured surface on the server (on
// a fleet coordinator the ladder is curve-sharded across workers) and
// stores it as a named surface baseline for later -check runs.
func runRecordBaseline(ctx context.Context, w io.Writer, server, name, target,
	patterns, ratios, rates, size string, window, probe int, kneeFactor float64) error {
	if server == "" {
		return fmt.Errorf("-record-baseline requires -server")
	}
	cfg, err := buildConfig(patterns, ratios, rates, size, window, probe, kneeFactor)
	if err != nil {
		return err
	}
	e, err := cluster.NewClient().MeasureBaseline(ctx, server, "/v1/surface",
		cluster.SurfaceRequest{Target: target, Config: &cfg, Async: true}, name, target)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mpsurf: baseline %q recorded (%s on %s, %d curves, fingerprint %s)\n",
		e.Name, e.Kind, e.Target, len(e.Reference.Curves), e.Fingerprint)
	return nil
}

// buildConfig assembles the surface configuration from flag values;
// empty values leave the corresponding axis at its default.
func buildConfig(patterns, ratios, rates, size string, window, probe int, kneeFactor float64) (surface.Config, error) {
	var cfg surface.Config
	var err error
	for _, f := range report.SplitList(patterns) {
		p, err := parsePattern(f)
		if err != nil {
			return cfg, err
		}
		cfg.Patterns = append(cfg.Patterns, p)
	}
	if cfg.RWRatios, err = parseFloats("ratios", ratios); err != nil {
		return cfg, err
	}
	if cfg.Rates, err = parseFloats("rates", rates); err != nil {
		return cfg, err
	}
	if size != "" {
		if cfg.ArrayBytes, err = report.ParseBytes(size); err != nil {
			return cfg, err
		}
	}
	cfg.WindowTxns = window
	cfg.ProbeHops = probe
	cfg.KneeFactor = kneeFactor
	return cfg, nil
}

// parsePattern resolves "contiguous", "strided:N" or "colmajor".
func parsePattern(s string) (mem.Pattern, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	kind, err := mem.ParsePatternKind(name)
	if err != nil {
		return mem.Pattern{}, err
	}
	p := mem.Pattern{Kind: kind}
	if kind == mem.Strided {
		p.StrideElems = 1
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return mem.Pattern{}, fmt.Errorf("bad stride in pattern %q", s)
			}
			p.StrideElems = n
		}
	} else if hasArg {
		return mem.Pattern{}, fmt.Errorf("pattern %q takes no argument", s)
	}
	return p, nil
}

func parseFloats(axis, s string) ([]float64, error) {
	var out []float64
	for _, f := range report.SplitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -%s value %q", axis, f)
		}
		out = append(out, v)
	}
	return out, nil
}
