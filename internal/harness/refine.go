package harness

import (
	"fmt"
	"strconv"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
)

// RefineResult is one (dataset, algorithm) cell of the refinement ablation:
// partition with the named family, then run the move/swap local search and
// record the quality deltas.
type RefineResult struct {
	Dataset   string
	Algorithm string
	P         int
	RFBefore  float64
	RFAfter   float64
	// BalanceBefore / BalanceAfter are max-load/(m/p) around refinement.
	BalanceBefore float64
	BalanceAfter  float64
	Passes        int
	Moves         int
	Swaps         int
	// ReplicasRemoved is the net replica reduction the search achieved.
	ReplicasRemoved int
	// PartitionSeconds / RefineSeconds split the initial partitioning cost
	// from the refinement cost.
	PartitionSeconds float64
	RefineSeconds    float64
	Skipped          bool
}

// RunRefineAblation partitions every dataset with every registered family at
// one partition count, refines each result in place with the move/swap local
// search, and emits refine.csv — the RF/balance improvement refinement buys
// on top of TLP, METIS, TLP-SW and the streaming families (ROADMAP item 4's
// headline table). Cells fan out over the worker pool; each cell's refiner
// runs on its own goroutine, so rows are the same for any worker count.
func RunRefineAblation(cfg Config, p int) error {
	cfg = cfg.withDefaults()
	results, err := runGrid(cfg, roster, []int{p}, func(g *graph.Graph, r Result, a *partition.Assignment) (RefineResult, error) {
		res := RefineResult{Dataset: r.Dataset, Algorithm: r.Algorithm, P: p,
			Skipped: a == nil, PartitionSeconds: r.Seconds}
		if a == nil {
			return res, nil
		}
		watch := obs.StartWatch()
		stats, err := refine.Run(g, a, refine.Options{})
		if err != nil {
			return res, fmt.Errorf("harness: refining %s on %s: %w", r.Algorithm, r.Dataset, err)
		}
		res.RefineSeconds = watch.Seconds()
		res.RFBefore, res.RFAfter = stats.RFBefore, stats.RFAfter
		res.BalanceBefore, res.BalanceAfter = stats.BalanceBefore, stats.BalanceAfter
		res.Passes, res.Moves, res.Swaps = stats.Passes, stats.Moves, stats.Swaps
		res.ReplicasRemoved = stats.ReplicasRemoved
		return res, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nREFINE (p=%d): move/swap local search on top of each family\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\talgorithm\trf before\trf after\tdelta\tbalance\tmoves\tswaps")
	var rows [][]string
	for _, res := range results {
		if res.Skipped {
			rows = append(rows, []string{res.Dataset, res.Algorithm, strconv.Itoa(p),
				"", "", "", "", "", "", "", "", "", ""})
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%+.3f\t%.3f\t%d\t%d\n",
			res.Dataset, res.Algorithm, res.RFBefore, res.RFAfter,
			res.RFAfter-res.RFBefore, res.BalanceAfter, res.Moves, res.Swaps)
		rows = append(rows, []string{res.Dataset, res.Algorithm, strconv.Itoa(p),
			fmt.Sprintf("%.4f", res.RFBefore), fmt.Sprintf("%.4f", res.RFAfter),
			fmt.Sprintf("%.4f", res.BalanceBefore), fmt.Sprintf("%.4f", res.BalanceAfter),
			strconv.Itoa(res.Passes), strconv.Itoa(res.Moves), strconv.Itoa(res.Swaps),
			strconv.Itoa(res.ReplicasRemoved),
			fmt.Sprintf("%.3f", res.PartitionSeconds), fmt.Sprintf("%.3f", res.RefineSeconds)})
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing refine ablation: %w", err)
	}
	return writeCSV(cfg, "refine.csv",
		[]string{"dataset", "algorithm", "p", "rf_before", "rf_after",
			"balance_before", "balance_after", "passes", "moves", "swaps",
			"replicas_removed", "partition_seconds", "refine_seconds"}, rows)
}
