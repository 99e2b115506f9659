package harness

import (
	"fmt"
	"strconv"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// engineProgram is one vertex program of the comparison, bounded so the
// grid measures synchronisation traffic, not convergence patience.
type engineProgram struct {
	name string
	make func(g *graph.Graph) engine.Program
	max  int
}

func enginePrograms() []engineProgram {
	return []engineProgram{
		{"pagerank", func(g *graph.Graph) engine.Program {
			return engine.NewPageRank(g.NumVertices(), 0.85, 1e-9)
		}, 8},
		{"components", func(g *graph.Graph) engine.Program {
			return &engine.Components{}
		}, 16},
	}
}

// EngineResult is one (dataset, algorithm, p, program) execution of the
// share-nothing runtime.
type EngineResult struct {
	Dataset    string
	Algorithm  string
	P          int
	Program    string
	RF         float64
	Supersteps int
	Messages   int64
	Bytes      int64
	// PartitionSeconds / RunSeconds split preprocessing from execution.
	PartitionSeconds float64
	RunSeconds       float64
	Skipped          bool
}

// RunEngineComparison executes vertex programs on the share-nothing GAS
// runtime over every registered partitioner on the standard datasets at one
// partition count, and emits engine_comm.csv — replication factor against
// actual synchronisation messages, wire bytes and wall-clock, the
// replication-factor-matters figure the paper argues from.
func RunEngineComparison(cfg Config, p int) error {
	cfg = cfg.withDefaults()
	programs := enginePrograms()
	// One cell = one (dataset, family): partition once, then run every
	// program on the same engine; each cell returns one EngineResult per
	// program.
	cells, err := runGrid(cfg, roster, []int{p}, func(g *graph.Graph, r Result, a *partition.Assignment) ([]EngineResult, error) {
		out := make([]EngineResult, len(programs))
		for pi := range out {
			out[pi] = EngineResult{Dataset: r.Dataset, Algorithm: r.Algorithm, P: p,
				Program: programs[pi].name, Skipped: a == nil}
		}
		if a == nil {
			return out, nil
		}
		e, err := engine.New(g, a)
		if err != nil {
			return nil, fmt.Errorf("harness: engine build %s on %s: %w", r.Algorithm, r.Dataset, err)
		}
		for pi, pr := range programs {
			watch := obs.StartWatch()
			_, stats, err := e.Run(pr.make(g), pr.max)
			if err != nil {
				return nil, fmt.Errorf("harness: engine run %s/%s on %s: %w", r.Algorithm, pr.name, r.Dataset, err)
			}
			out[pi].RF = e.ReplicationFactor()
			out[pi].Supersteps = stats.Supersteps
			out[pi].Messages = stats.Messages()
			out[pi].Bytes = stats.Bytes()
			out[pi].PartitionSeconds = r.Seconds
			out[pi].RunSeconds = watch.Seconds()
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nENGINE (p=%d): replication factor vs synchronisation traffic\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\talgorithm\trf\tprogram\tsteps\tmessages\tMB")
	var rows [][]string
	for _, cell := range cells {
		for _, res := range cell {
			if res.Skipped {
				rows = append(rows, []string{res.Dataset, res.Algorithm, strconv.Itoa(p), res.Program,
					"", "", "", "", "", ""})
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\t%d\t%d\t%.2f\n",
				res.Dataset, res.Algorithm, res.RF, res.Program,
				res.Supersteps, res.Messages, float64(res.Bytes)/1e6)
			rows = append(rows, []string{res.Dataset, res.Algorithm, strconv.Itoa(p), res.Program,
				fmt.Sprintf("%.4f", res.RF), strconv.Itoa(res.Supersteps),
				strconv.FormatInt(res.Messages, 10), strconv.FormatInt(res.Bytes, 10),
				fmt.Sprintf("%.3f", res.PartitionSeconds), fmt.Sprintf("%.3f", res.RunSeconds)})
		}
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing engine comparison: %w", err)
	}
	return writeCSV(cfg, "engine_comm.csv",
		[]string{"dataset", "algorithm", "p", "program", "rf", "supersteps", "messages", "bytes",
			"partition_seconds", "run_seconds"}, rows)
}
