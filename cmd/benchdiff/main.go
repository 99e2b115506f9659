// Command benchdiff compares two benchsnap JSON snapshots (any of
// BENCH_baseline.json, BENCH_net.json, BENCH_obs.json,
// BENCH_cluster_obs.json, ...) and gates on relative regressions: a metric
// whose direction is known (seconds are higher-is-worse, speedups
// lower-is-worse) may drift by at most -threshold relative to the baseline.
// The refinement grid is not a snapshot; it is results/refine.csv, written
// by cmd/experiments -exp refine.
//
// The comparison is generic over the JSON shape rather than bound to one
// snapshot schema: objects are walked key by key, arrays of objects are
// matched by identity keys (dataset, algorithm, p, transport, workers,
// program, name), and environment metadata (generated_at, go_version,
// goos, ...) is ignored. Structural differences — a metric missing from the
// candidate, a type change, an unmatched array entry — are format drift and
// fail independently of any threshold, so a snapshot that silently stops
// measuring something cannot pass the gate.
//
// Usage:
//
//	benchdiff -threshold 0.25 BENCH_baseline.json /tmp/candidate.json
//
// Exit codes:
//
//	0  no regression
//	1  at least one metric regressed beyond the threshold
//	2  format drift between the snapshots, or a usage error
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	threshold := fs.Float64("threshold", 0.25, "maximum tolerated relative regression (0.25 = 25%)")
	quiet := fs.Bool("quiet", false, "print only regressions and drift, not per-metric comparisons")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errw, "usage: benchdiff [-threshold 0.25] BASELINE.json CANDIDATE.json")
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintln(errw, "benchdiff: -threshold must be positive")
		return 2
	}

	base, err := loadJSON(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	cand, err := loadJSON(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}

	rep := Compare(base, cand, *threshold)
	if !*quiet {
		for _, c := range rep.Compared {
			fmt.Fprintln(out, " ", c)
		}
	}
	for _, d := range rep.Drift {
		fmt.Fprintln(out, "DRIFT:", d)
	}
	for _, r := range rep.Regressions {
		fmt.Fprintln(out, "REGRESSION:", r)
	}
	switch {
	case len(rep.Drift) > 0:
		fmt.Fprintf(out, "benchdiff: format drift (%d issues) between %s and %s\n",
			len(rep.Drift), fs.Arg(0), fs.Arg(1))
		return 2
	case len(rep.Regressions) > 0:
		fmt.Fprintf(out, "benchdiff: %d of %d gated metrics regressed beyond %.0f%%\n",
			len(rep.Regressions), rep.Gated, 100**threshold)
		return 1
	default:
		fmt.Fprintf(out, "benchdiff: ok — %d gated metrics within %.0f%% of baseline\n",
			rep.Gated, 100**threshold)
		return 0
	}
}
