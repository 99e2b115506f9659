// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic dataset analogues.
//
// Usage:
//
//	experiments -exp all                 # everything (several minutes)
//	experiments -exp fig8 -csv results   # Fig 8 plus CSV output
//	experiments -exp table4 -quick       # scaled-down datasets, seconds
//	experiments -exp fig8 -workers 1     # force a fully sequential run
//
// Experiments: table3, fig8, table4, fig9 (p=10), fig10 (p=15),
// fig11 (p=20), table6, timing, ablation, window (TLP-SW window-size
// sweep), engine (share-nothing GAS runtime communication comparison),
// refine (move/swap local-search refinement on top of every family), all.
//
// Every experiment that compares partitioners draws them from the
// harness's one family roster: fig8 and timing run the paper's five (timing
// renders the Fig. 8 cells' seconds at its one p), engine and refine run
// all ten, and ablation runs four of them plus two TLP variants. Each
// experiment reads the generated datasets from the harness's cache, so
// none regenerates them.
//
// Grid cells (and dataset generations) run concurrently on a bounded worker
// pool; output is identical for any worker count. The pool size comes from
// -workers, then the GRAPHPART_WORKERS environment variable, then
// GOMAXPROCS. Per-cell seconds in timing output include contention between
// concurrent cells — use -workers 1 for clean timings.
//
// table3.csv is written only by -exp table3 and -exp all; the other
// experiments still generate (and print) the datasets they run on, but
// leave the committed Table III untouched.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/harness"
	"github.com/graphpart/graphpart/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiments lists every -exp value run accepts.
var experiments = []string{"table3", "fig8", "table4", "fig9", "fig10", "fig11",
	"table6", "timing", "ablation", "window", "engine", "refine", "all"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(experiments, "|"))
		seed     = fs.Uint64("seed", 42, "random seed for datasets and algorithms")
		csv      = fs.String("csv", "", "directory for CSV output (optional)")
		quick    = fs.Bool("quick", false, "use ~10% scale datasets (seconds instead of minutes)")
		only     = fs.String("datasets", "", "comma-separated dataset notations to restrict to (e.g. G1,G2)")
		workers  = fs.Int("workers", 0, "concurrent grid cells; 0 = GRAPHPART_WORKERS env, then GOMAXPROCS (output is identical for any value)")
		traceOut = fs.String("trace", "", "write a Chrome trace-event file of the run (load at chrome://tracing)")
		metrics  = fs.String("metrics", "", "write a JSON metrics snapshot of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(experiments, *exp) {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	telemetry := *traceOut != "" || *metrics != ""
	if telemetry {
		obs.Enable()
	}

	cfg := harness.Config{Seed: *seed, CSVDir: *csv, Out: out, Workers: *workers}
	if *quick {
		cfg.Datasets = gen.SmallDatasets()
		cfg.Ps = []int{4, 6, 8}
	}
	if *only != "" {
		all := cfg.Datasets
		if all == nil {
			all = gen.Datasets()
		}
		var keep []gen.Dataset
		for _, want := range strings.Split(*only, ",") {
			want = strings.TrimSpace(want)
			found := false
			for _, d := range all {
				if d.Notation == want {
					keep = append(keep, d)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown dataset %q", want)
			}
		}
		cfg.Datasets = keep
	}

	// timed wraps one experiment in a trace span so -trace output groups the
	// run by experiment; the span is inert unless telemetry is on.
	timed := func(name string, fn func() error) error {
		sp := obs.Start("experiment." + name)
		err := fn()
		sp.End()
		return err
	}

	watch := obs.StartWatch()
	fmt.Fprintf(out, "generating datasets (seed %d)...\n", *seed)
	table3 := cfg
	if *exp != "table3" && *exp != "all" {
		table3.CSVDir = ""
	}
	if err := timed("table3", func() error {
		return harness.RunTable3(table3)
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "generated in %v\n", watch.Elapsed().Round(time.Millisecond))
	if *exp == "table3" {
		return nil
	}

	wantFig8 := *exp == "fig8" || *exp == "table4" || *exp == "all"
	if wantFig8 {
		var results []harness.Result
		if err := timed("fig8", func() (err error) {
			results, err = harness.RunFig8(cfg)
			return err
		}); err != nil {
			return err
		}
		if *exp == "table4" || *exp == "all" {
			if err := timed("table4", func() error {
				return harness.RunTable4(cfg, results)
			}); err != nil {
				return err
			}
		}
	}
	figPs := map[string]int{"fig9": 10, "fig10": 15, "fig11": 20}
	if *quick {
		figPs = map[string]int{"fig9": 4, "fig10": 6, "fig11": 8}
	}
	if p, ok := figPs[*exp]; ok {
		if err := timed(*exp, func() error {
			_, err := harness.RunFigR(cfg, p)
			return err
		}); err != nil {
			return err
		}
	}
	if *exp == "all" {
		ps := cfg.Ps
		if ps == nil {
			ps = []int{10, 15, 20}
		}
		for _, p := range ps {
			if err := timed("figR", func() error {
				_, err := harness.RunFigR(cfg, p)
				return err
			}); err != nil {
				return err
			}
		}
	}
	if *exp == "table6" || *exp == "all" {
		if err := timed("table6", func() error {
			return harness.RunTable6(cfg)
		}); err != nil {
			return err
		}
	}
	tp := 10
	if *quick {
		tp = 4
	}
	if *exp == "timing" || *exp == "all" {
		if err := timed("timing", func() error {
			return harness.RunTiming(cfg, tp)
		}); err != nil {
			return err
		}
	}
	if *exp == "ablation" || *exp == "all" {
		if err := timed("ablation", func() error {
			return harness.RunAblation(cfg, tp)
		}); err != nil {
			return err
		}
	}
	if *exp == "window" || *exp == "all" {
		if err := timed("window", func() error {
			return harness.RunWindowAblation(cfg, tp)
		}); err != nil {
			return err
		}
	}
	if *exp == "engine" || *exp == "all" {
		if err := timed("engine", func() error {
			return harness.RunEngineComparison(cfg, tp)
		}); err != nil {
			return err
		}
	}
	if *exp == "refine" || *exp == "all" {
		if err := timed("refine", func() error {
			return harness.RunRefineAblation(cfg, tp)
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\ntotal time: %v\n", watch.Elapsed().Round(time.Millisecond))
	if telemetry {
		printSpanSummary(out)
		if err := writeTelemetry(*traceOut, *metrics); err != nil {
			return err
		}
	}
	return nil
}

// printSpanSummary renders the per-experiment (and hottest inner) span
// totals the trace recorded.
func printSpanSummary(out io.Writer) {
	recs, dropped := obs.TraceRecords()
	sums := obs.SummarizeSpans(recs)
	if len(sums) == 0 {
		return
	}
	fmt.Fprintln(out, "\nTELEMETRY: span totals (hottest first)")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\ttotal_s\tp50_s\tp95_s")
	for _, s := range sums {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.4f\t%.4f\n",
			s.Name, s.Count, s.TotalSeconds, s.P50Seconds, s.P95Seconds)
	}
	_ = tw.Flush()
	if dropped > 0 {
		fmt.Fprintf(out, "(trace ring dropped %d oldest records; raise capacity via obs.SetTraceCapacity)\n", dropped)
	}
}

// writeTelemetry exports the recorded trace and metrics to the requested
// files; empty paths are skipped.
func writeTelemetry(tracePath, metricsPath string) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := obs.Default.WriteJSON(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
