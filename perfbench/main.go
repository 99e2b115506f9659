// Command perfbench is the repository's benchmark: four closed-loop
// workloads that time the whole path (dataset -> partition -> refine ->
// engine or cluster run) end to end, split the time into layers, and check
// every output. See README.md for the workloads and what each metric should
// move.
//
//	perfbench --workload tlp-large --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/graphpart/graphpart/internal/wire"
)

func main() {
	// cluster-tcp re-executes this binary once per machine.
	if wire.MaybeWorker() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its report.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's graphs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, traced: *trace == 1}
	printEnv(stdout, w.name, cfg)
	rep, err := runWorkload(w, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printEnv records the settings the numbers depend on.
func printEnv(w io.Writer, workload string, cfg *config) {
	workers := os.Getenv("GRAPHPART_WORKERS")
	if workers == "" {
		workers = "unset"
	}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%t\n",
		workload, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(w, "# go=%s gomaxprocs=%d nproc=%d GRAPHPART_WORKERS=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), workers)
}

// metric is one named, united value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// order is the order the metrics are printed in.
	order []string
}

// writeReport prints every metric on its own line, then the JSON line.
func writeReport(w io.Writer, rep *report) error {
	for _, n := range rep.order {
		fmt.Fprintf(w, "%-34s %.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-34s %.6g (%d of %d operations)\n", "fail_ratio",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
